package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// ViewInfo is one maintained materialized view in a VIEWSREPLY payload.
type ViewInfo struct {
	// Query is the cached query's source text.
	Query string
	// Rows is the memoized answer's current size; Maintains counts
	// commits absorbed incrementally; LastDeltaTuples and LastMaintain
	// describe the most recent maintenance run.
	Rows            int64
	Maintains       int64
	LastDeltaTuples int64
	LastMaintain    time.Duration
}

// Views is the VIEWSREPLY payload: the server's live maintained views,
// most recently used first.
type Views struct {
	Views []ViewInfo
}

// Encode renders the payload.
func (m Views) Encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(len(m.Views)))
	for _, v := range m.Views {
		buf = appendString(buf, v.Query)
		buf = binary.AppendVarint(buf, v.Rows)
		buf = binary.AppendVarint(buf, v.Maintains)
		buf = binary.AppendVarint(buf, v.LastDeltaTuples)
		buf = binary.AppendVarint(buf, int64(v.LastMaintain))
	}
	return buf
}

// DecodeViews parses a VIEWSREPLY payload. A view takes at least five
// bytes (a string's length and four integers), so a view count the
// payload cannot hold is refused before anything is allocated.
func DecodeViews(p []byte) (Views, error) {
	var m Views
	n, buf, err := readUvarint(p)
	if err != nil {
		return Views{}, err
	}
	if n > uint64(len(buf))/5 {
		return Views{}, fmt.Errorf("wire: corrupt VIEWSREPLY view count %d", n)
	}
	m.Views = make([]ViewInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		var v ViewInfo
		if v.Query, buf, err = readString(buf); err != nil {
			return Views{}, err
		}
		var ns int64
		for _, f := range []*int64{&v.Rows, &v.Maintains, &v.LastDeltaTuples, &ns} {
			if *f, buf, err = readVarint(buf); err != nil {
				return Views{}, err
			}
		}
		v.LastMaintain = time.Duration(ns)
		m.Views = append(m.Views, v)
	}
	if err := trailing(buf, MsgViewsReply); err != nil {
		return Views{}, err
	}
	return m, nil
}
