package netsim

import (
	"fmt"
	"time"
)

// TCPMicroModel explains the "non-linear time response with the data
// payload" the paper observes for small messages on the GigaE network
// (Figure 3, left): for small transfers "the TCP window size and,
// therefore, the number of TCP frames and ACKs that have to be
// transmitted, introduce a delay that cannot be hidden".
//
// The model is mechanistic: a payload of n bytes becomes ⌈n/MSS⌉ segments;
// the sender transmits them in slow-start flights (the congestion window
// starts at InitialWindow segments and doubles per acknowledged flight),
// and every flight but the last stalls for one round trip waiting for its
// ACK. One-way time is then
//
//	base latency + serialization(n) + (flights − 1) · RTT.
//
// The empirical anchor table in this package remains the source of truth
// for simulation (it *is* the measurement); the micro-model's role is
// explanatory, and a test checks it reproduces the measured anchors to
// within modeling tolerance — including the large 21 KB module transfer,
// which it predicts within a few percent.
type TCPMicroModel struct {
	// BaseLatency is the one-way latency of a minimal frame: NIC, driver,
	// switch, and protocol-stack traversal.
	BaseLatency time.Duration
	// WireMBps is the link's serialization rate in MiB/s (raw Ethernet
	// payload rate, before TCP effects).
	WireMBps float64
	// MSS is the TCP maximum segment size.
	MSS int
	// InitialWindow is the slow-start initial congestion window in
	// segments (RFC 2581-era TCP on 2.6.18 kernels used 1-2).
	InitialWindow int
}

// GigaETCPModel returns the micro-model parameterized for the paper's
// testbed: measured 22.2 µs minimal one-way latency, 112.4 MB/s effective
// payload rate, standard Ethernet MSS, and an initial window of one
// segment.
func GigaETCPModel() TCPMicroModel {
	return TCPMicroModel{
		BaseLatency:   22200 * time.Nanosecond,
		WireMBps:      112.4,
		MSS:           1460,
		InitialWindow: 1,
	}
}

func (m TCPMicroModel) validate() error {
	if m.BaseLatency <= 0 || m.WireMBps <= 0 || m.MSS <= 0 || m.InitialWindow <= 0 {
		return fmt.Errorf("netsim: incomplete TCP micro-model %+v", m)
	}
	return nil
}

// Segments returns the number of TCP segments a payload needs.
func (m TCPMicroModel) Segments(payload int64) int {
	if payload <= 0 {
		return 1 // even an empty message occupies one frame
	}
	return int((payload + int64(m.MSS) - 1) / int64(m.MSS))
}

// Flights returns the number of slow-start flights needed to move the
// given number of segments, with the window doubling per flight.
func (m TCPMicroModel) Flights(segments int) int {
	if segments <= 0 {
		return 1
	}
	window := m.InitialWindow
	flights := 0
	for segments > 0 {
		flights++
		segments -= window
		if window < 1<<20 {
			window *= 2
		}
	}
	return flights
}

// OneWay models the one-way latency of a payload: base latency plus
// serialization plus one RTT stall per flight beyond the first.
func (m TCPMicroModel) OneWay(payload int64) (time.Duration, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	serialization := time.Duration(float64(payload) / (m.WireMBps * (1 << 20)) * float64(time.Second))
	stalls := m.Flights(m.Segments(payload)) - 1
	rtt := 2 * m.BaseLatency
	return m.BaseLatency + serialization + time.Duration(stalls)*rtt, nil
}
