// Package wire is a stand-in for the protocol package: WriteFrame
// writes through an io.Writer, which the call graph cannot follow to
// the connection, so lockorder names it as connection I/O.
package wire

import "io"

func WriteFrame(w io.Writer, frame []byte) (int, error) { return w.Write(frame) }
