// Package client is the Go client for a dkbd server: a thin, synchronous
// wrapper over the wire protocol. A Client owns one connection and runs a
// strict request/response alternation on it; it is safe for concurrent
// use, with concurrent callers serialized per connection. Open several
// clients to exercise server-side concurrency.
package client

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dkbms/internal/wire"
)

// Client is one dkbd connection.
type Client struct {
	mu   sync.Mutex // serializes request/response exchanges
	conn net.Conn
	// buf holds the frame of the exchange in progress: the request, then
	// its reply, which is decoded before the next exchange reuses buf.
	buf []byte
}

// Dial connects to a dkbd server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close closes the connection. In-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and decodes its response with decode
// while it holds c.mu, so the reply's bytes in c.buf are decoded before
// another exchange overwrites them. A server ERROR frame becomes a Go
// error.
func roundTrip[T any](c *Client, t wire.MsgType, payload []byte, want wire.MsgType, decode func([]byte) (T, error)) (T, error) {
	var zero T
	//dkblint:locksafe the connection carries one exchange at a time: c.mu serializes this client's callers across their round trip by design
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(wire.Frame(c.buf, t), payload...)
	if _, err := wire.WriteFrame(c.conn, c.buf); err != nil {
		return zero, err
	}
	rt, rp, _, err := wire.ReadFrame(c.conn, c.buf)
	if err != nil {
		return zero, err
	}
	c.buf = wire.Reuse(rp)
	if rt == wire.MsgError {
		e, derr := wire.DecodeError(rp)
		if derr != nil {
			return zero, fmt.Errorf("client: undecodable server error: %v", derr)
		}
		// The code byte maps the failure back onto the dkbms sentinels,
		// so errors.Is(err, dkbms.ErrParse) etc. work through the wire.
		return zero, e.Err()
	}
	if rt != want {
		return zero, fmt.Errorf("client: server sent %v, want %v", rt, want)
	}
	return decode(rp)
}

// noPayload decodes the empty PONG and OK replies.
func noPayload([]byte) (struct{}, error) { return struct{}{}, nil }

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := roundTrip(c, wire.MsgPing, nil, wire.MsgPong, noPayload)
	return err
}

// Load sends Horn-clause source (facts and rules) to the server's
// workspace D/KB.
func (c *Client) Load(src string) error {
	_, err := roundTrip(c, wire.MsgLoad, wire.Load{Src: src}.Encode(), wire.MsgOK, noPayload)
	return err
}

// Query evaluates one query ("?- p(X, y).") on the server. The server
// compiles a query text once and reuses the program, and while the
// tables it reads stand still its answer, for every session that sends
// the same text and options.
func (c *Client) Query(src string, opts wire.QueryOpts) (*wire.Result, error) {
	return roundTrip(c, wire.MsgQuery, wire.Query{Src: src, Opts: opts}.Encode(), wire.MsgResult, wire.DecodeResult)
}

// Retract removes base facts matching pattern (e.g. "parent(john, X)")
// and reports how many were deleted.
func (c *Client) Retract(pattern string) (int64, error) {
	r, err := roundTrip(c, wire.MsgRetract, wire.Retract{Pattern: pattern}.Encode(), wire.MsgRetracted, wire.DecodeRetracted)
	return r.N, err
}
