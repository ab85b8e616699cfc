//go:build !unix

package gateway

// peekSocket has no non-blocking peek to make outside unix systems: it
// finds nothing, and an idle connection is judged by its buffers alone.
func (pc *poolConn) peekSocket(uintptr) { pc.spoke = false }
