package rtlib

import (
	"context"
	"fmt"
	"sync"

	"dkbms/internal/db"
	"dkbms/internal/rel"
)

// sink takes the records of one db.Stmt.Scan: it counts them and, as
// its read asks, decodes them into one block of rows (decode) or
// appends them to one row block (block not nil), observing the run's
// context between records. Sinks are pooled with their record step,
// made once, so a read allocates only what it returns.
type sink struct {
	ctx    context.Context
	n      int
	decode bool
	dec    rel.BlockDecoder
	block  []byte
	add    func(rec []byte) error
}

var sinks = sync.Pool{New: func() any {
	s := new(sink)
	s.add = func(rec []byte) error {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		s.n++
		if s.decode {
			return s.dec.Add(rec)
		}
		if s.block != nil {
			s.block = rel.AppendRecord(s.block, rec)
		}
		return nil
	}
	return s
}}

// newSink returns a pooled sink that counts, observing ctx.
func newSink(ctx context.Context) *sink {
	s := sinks.Get().(*sink)
	s.ctx = ctx
	return s
}

// release empties the sink, keeping nothing it read, and pools it.
func (s *sink) release() {
	*s = sink{add: s.add}
	sinks.Put(s)
}

// countRows returns how many records one execution of st on tables
// emits, decoding none.
func countRows(ctx context.Context, d *db.DB, st *db.Stmt, tables ...string) (int, error) {
	s := newSink(ctx)
	defer s.release()
	err := st.Scan(ctx, d, nil, nil, s.add, tables...)
	return s.n, err
}

// readRows reads the relation name through one execution of all, a
// SELECT * FROM $1, into one block of rows of their own: one value slab
// sized by the table's maintained row count, and one character buffer
// sized once by its maintained record bytes and handed to the rows as
// their string (rel.BlockDecoder.FinishLast).
func readRows(ctx context.Context, d *db.DB, all *db.Stmt, name string) ([]rel.Tuple, error) {
	t := d.Table(name)
	if t == nil {
		return nil, fmt.Errorf("rtlib: no relation %s", name)
	}
	s := newSink(ctx)
	defer s.release()
	s.decode, s.dec = true, rel.NewBlockDecoder(t.Schema)
	s.dec.Begin(t.Rows(), t.Bytes())
	if err := all.Scan(ctx, d, nil, nil, s.add, name); err != nil {
		return nil, err
	}
	return s.dec.FinishLast().Rows(), nil
}

// readBlock reads the relation name through one execution of all, a
// SELECT * FROM $1, as one row block (rel.AppendRows's layout): its
// records as stored, none decoded. The block is allocated once, sized
// by the table's maintained row count and record bytes, which is exact
// unless a record is 128 bytes or longer and takes more length bytes;
// a block that outgrew that room is copied once more, to its length.
// Either way its capacity is its length, so a memo of it holds no
// slack.
func readBlock(ctx context.Context, d *db.DB, all *db.Stmt, name string) ([]byte, error) {
	t := d.Table(name)
	if t == nil {
		return nil, fmt.Errorf("rtlib: no relation %s", name)
	}
	s := newSink(ctx)
	defer s.release()
	var h [16]byte
	hdr := rel.AppendRowsHeader(h[:0], t.Schema, t.Rows())
	room := len(hdr) + t.Rows() + t.Bytes()
	s.block = append(make([]byte, 0, room), hdr...)
	if err := all.Scan(ctx, d, nil, nil, s.add, name); err != nil {
		return nil, err
	}
	// The header counted the rows before the records came.
	if s.n != t.Rows() {
		return nil, fmt.Errorf("rtlib: relation %s holds %d records, counted %d", name, s.n, t.Rows())
	}
	if len(s.block) != room {
		return append(make([]byte, 0, len(s.block)), s.block...), nil
	}
	return s.block, nil
}
