package rcuda

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
)

// waitWithin fails the test if d.Wait does not return within a few seconds,
// which would mean a handler the daemon started is still blocked.
func waitWithin(t *testing.T, d *SimDaemon) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return: a handler is still running")
		return nil
	}
}

func TestSimDaemonWaitNamesParkedBytes(t *testing.T) {
	d, dev, _ := simDaemon(netsim.IB40G())
	conn, _ := d.Dial()
	client, err := Open(conn, moduleImage(t, calib.MM), WithReconnect(d.Dial))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	// Drop the connection without finalizing: the durable session parks,
	// its allocation held for a reattach that never comes.
	_ = conn.Close()
	err = waitWithin(t, d)
	if err == nil {
		t.Fatal("Wait returned nil with a parked session holding device memory")
	}
	if held := fmt.Sprint(dev.MemoryInUse()); dev.MemoryInUse() == 0 || !strings.Contains(err.Error(), held) {
		t.Fatalf("Wait = %v, want it to name the %s bytes the parked session holds", err, held)
	}
}

func TestSimDaemonReconnectReattaches(t *testing.T) {
	d, _, _ := simDaemon(netsim.IB40G())
	conn, _ := d.Dial()
	client, err := Open(conn, moduleImage(t, calib.MM), WithRetry(time.Second), WithReconnect(d.Dial))
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{0x3c}, 4096)
	ptr, err := client.Malloc(uint32(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(ptr, src); err != nil {
		t.Fatal(err)
	}
	// Cut the first connection under the client: the next call retries on a
	// connection dialed through the daemon and reattaches the session.
	_ = conn.Close()
	dst := make([]byte, len(src))
	if err := client.MemcpyToHost(dst, ptr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("reattached session read back different bytes")
	}
	if st := client.Stats(); st.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", st.Reconnects)
	}
	if err := client.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := waitWithin(t, d); err != nil {
		t.Fatalf("Wait after the reattached session closed: %v", err)
	}
}
