package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"dkbms/internal/obs"
)

// Slowlog is the SLOWLOGREPLY payload: the server's retained slow-query
// records, slowest first, plus the log's retention settings.
type Slowlog struct {
	// ThresholdNs is the server's retention threshold in nanoseconds
	// (0 = every query is retained).
	ThresholdNs int64
	// Capacity is the ring size; Recorded counts entries ever retained.
	Capacity int64
	Recorded int64
	// Entries are the retained records, slowest first.
	Entries []obs.SlowQuery
}

// Encode renders the payload.
func (m Slowlog) Encode() []byte {
	buf := binary.AppendVarint(nil, m.ThresholdNs)
	buf = binary.AppendVarint(buf, m.Capacity)
	buf = binary.AppendVarint(buf, m.Recorded)
	buf = binary.AppendUvarint(buf, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		buf = appendSlowQuery(buf, e)
	}
	return buf
}

func appendSlowQuery(buf []byte, e obs.SlowQuery) []byte {
	buf = appendString(buf, e.Query)
	buf = binary.AppendVarint(buf, e.Start.UnixNano())
	buf = binary.AppendVarint(buf, int64(e.Latency))
	buf = appendString(buf, e.Cache)
	buf = binary.AppendVarint(buf, e.Iterations)
	buf = binary.AppendVarint(buf, e.Rows)
	buf = binary.AppendVarint(buf, e.Session)
	buf = binary.AppendUvarint(buf, e.QueryID)
	buf = appendString(buf, e.Err)
	if e.Trace != nil {
		buf = append(buf, 1)
		buf = appendSpan(buf, e.Trace)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// DecodeSlowlog parses a SLOWLOGREPLY payload. A record takes at least
// ten bytes (three strings' lengths, six integers and the trace flag), so
// an entry count the payload cannot hold is refused before anything is
// allocated.
func DecodeSlowlog(p []byte) (Slowlog, error) {
	var m Slowlog
	var err error
	buf := p
	if m.ThresholdNs, buf, err = readVarint(buf); err != nil {
		return Slowlog{}, err
	}
	if m.Capacity, buf, err = readVarint(buf); err != nil {
		return Slowlog{}, err
	}
	if m.Recorded, buf, err = readVarint(buf); err != nil {
		return Slowlog{}, err
	}
	n, buf, err := readUvarint(buf)
	if err != nil {
		return Slowlog{}, err
	}
	if n > uint64(len(buf))/10 {
		return Slowlog{}, fmt.Errorf("wire: corrupt SLOWLOGREPLY entry count %d", n)
	}
	m.Entries = make([]obs.SlowQuery, 0, n)
	for i := uint64(0); i < n; i++ {
		var e obs.SlowQuery
		if e, buf, err = readSlowQuery(buf); err != nil {
			return Slowlog{}, err
		}
		m.Entries = append(m.Entries, e)
	}
	if err := trailing(buf, MsgSlowlogReply); err != nil {
		return Slowlog{}, err
	}
	return m, nil
}

func readSlowQuery(buf []byte) (obs.SlowQuery, []byte, error) {
	var e obs.SlowQuery
	var err error
	if e.Query, buf, err = readString(buf); err != nil {
		return e, nil, err
	}
	var ns int64
	if ns, buf, err = readVarint(buf); err != nil {
		return e, nil, err
	}
	e.Start = time.Unix(0, ns)
	if ns, buf, err = readVarint(buf); err != nil {
		return e, nil, err
	}
	e.Latency = time.Duration(ns)
	if e.Cache, buf, err = readString(buf); err != nil {
		return e, nil, err
	}
	if e.Iterations, buf, err = readVarint(buf); err != nil {
		return e, nil, err
	}
	if e.Rows, buf, err = readVarint(buf); err != nil {
		return e, nil, err
	}
	if e.Session, buf, err = readVarint(buf); err != nil {
		return e, nil, err
	}
	if e.QueryID, buf, err = readUvarint(buf); err != nil {
		return e, nil, err
	}
	if e.Err, buf, err = readString(buf); err != nil {
		return e, nil, err
	}
	if len(buf) < 1 || buf[0] > 1 {
		return e, nil, fmt.Errorf("wire: corrupt slow-query record trace flag")
	}
	hasTrace := buf[0] == 1
	buf = buf[1:]
	if hasTrace {
		var nodes int
		if e.Trace, buf, err = readSpan(buf, 0, &nodes); err != nil {
			return e, nil, err
		}
	}
	return e, buf, nil
}
