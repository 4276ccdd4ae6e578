package rcuda

import (
	"fmt"

	mw "rcuda/internal/rcuda"
	"rcuda/internal/vclock"
)

// SimSession is an in-process rCUDA deployment on a virtual clock: a
// simulated device, a daemon serving it, and a connected client, joined by
// a simulated interconnect. It is the deterministic twin of a real
// TCP deployment — time advances only through the network, PCIe, and
// kernel models, so Clock.Now() deltas are the modeled execution times the
// paper reports.
type SimSession struct {
	// Client is the remote runtime; it satisfies Runtime, AsyncRuntime,
	// and the device-management surface.
	Client *Client
	// Device is the server-side GPU.
	Device *Device
	// Clock is the session's virtual time source.
	Clock *SimClock

	daemon *mw.SimDaemon
}

// NewSimSession starts a simulated deployment over the given interconnect
// and opens a session with the given GPU module image. Options: a nil
// noise runs deterministically.
func NewSimSession(link *Network, module []byte, noise *Noise) (*SimSession, error) {
	clk := vclock.NewSim()
	dev := NewSimDevice(clk)
	daemon := mw.NewSimDaemon(mw.NewServer(dev), link, clk, noise)
	client, err := daemon.Open(module)
	if err != nil {
		_ = daemon.Wait()
		return nil, fmt.Errorf("rcuda: open simulated session: %w", err)
	}
	return &SimSession{Client: client, Device: dev, Clock: clk, daemon: daemon}, nil
}

// Close finalizes the session and waits for the server side to wind down,
// returning the first error from either side.
func (s *SimSession) Close() error {
	closeErr := s.Client.Close()
	if srvErr := s.daemon.Wait(); closeErr == nil {
		return srvErr
	}
	return closeErr
}
