//go:build unix

package gateway

import "syscall"

// peekSocket looks at the socket without blocking and without taking
// anything from it: spoke records that the node sent bytes, its FIN or a
// reset since the last read. A read deadline cannot ask this, because
// the runtime's poller fails a read past its deadline before issuing
// read(2).
func (pc *poolConn) peekSocket(fd uintptr) {
	var b [1]byte
	_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	pc.spoke = err != syscall.EAGAIN
}
