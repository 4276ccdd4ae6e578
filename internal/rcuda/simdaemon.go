package rcuda

import (
	"fmt"
	"sync"

	"rcuda/internal/netsim"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// SimDaemon serves a Server to in-process clients over simulated pipes: the
// one simulated deployment every repro run, report, experiment and test
// uses. The server, its devices and the link clock stay the caller's; the
// daemon only wires pipes and tracks the handlers it starts, so Wait can
// say when the server side of every session has wound down.
type SimDaemon struct {
	srv   *Server
	link  *netsim.Link
	clock vclock.Clock
	noise *netsim.Noise

	mu      sync.Mutex
	settled sync.Cond // signalled when busy drops to 0
	// busy counts the handlers serving a session or a handshake: a handler
	// that exited, or rests between sessions on a kept connection, is not
	// busy.
	busy int
	err  error // the first ServeConn error
}

// NewSimDaemon serves srv over pipes on link. The link charges clock, which
// need not be the clock of srv's devices; a nil noise runs deterministically.
func NewSimDaemon(srv *Server, link *netsim.Link, clock vclock.Clock, noise *netsim.Noise) *SimDaemon {
	d := &SimDaemon{srv: srv, link: link, clock: clock, noise: noise}
	d.settled.L = &d.mu
	return d
}

// Dial makes a pipe and serves its server end on a handler goroutine, which
// closes that end when ServeConn returns. It fits Endpoint.Dial and the
// WithReconnect dialer as it is.
func (d *SimDaemon) Dial() (transport.Conn, error) {
	cliEnd, srvEnd := transport.Pipe(d.link, d.clock, d.noise)
	d.move(1)
	go func() {
		resting := false
		err := d.srv.serveConn(srvEnd, func(r bool) {
			resting = r
			if r {
				d.move(-1)
			} else {
				d.move(1)
			}
		})
		_ = srvEnd.Close()
		d.mu.Lock()
		if err != nil && d.err == nil {
			d.err = err
		}
		d.mu.Unlock()
		if !resting {
			d.move(-1)
		}
	}()
	return cliEnd, nil
}

// move adds n to the busy handlers, waking Wait when none is left.
func (d *SimDaemon) move(n int) {
	d.mu.Lock()
	d.busy += n
	if d.busy == 0 {
		d.settled.Broadcast()
	}
	d.mu.Unlock()
}

// Open dials the daemon and opens a session on the new connection, closing
// the connection if the session cannot be opened.
func (d *SimDaemon) Open(module []byte, opts ...ClientOption) (*Client, error) {
	conn, _ := d.Dial()
	client, err := Open(conn, module, opts...)
	if err != nil {
		_ = conn.Close()
	}
	return client, err
}

// Wait returns once every handler the daemon started has exited or rests
// between sessions on a kept connection, its last session released: the
// first ServeConn error, or else an error naming a device of the server
// that still holds memory. Close or release the clients first; a handler
// serves until its client finalizes or goes away.
func (d *SimDaemon) Wait() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy > 0 {
		d.settled.Wait()
	}
	if d.err != nil {
		return d.err
	}
	for i, dev := range d.srv.devs {
		if inUse := dev.MemoryInUse(); inUse != 0 {
			return fmt.Errorf("rcuda: device %d holds %d bytes after its sessions ended", i, inUse)
		}
	}
	return nil
}
