package cudart

import "time"

// Stream is a CUDA stream handle; the zero value is the default
// (synchronizing) stream.
type Stream uint32

// Event is a CUDA event handle.
type Event uint32

// AsyncRuntime extends Runtime with streams, asynchronous copies, and
// events — the surface the paper defers to future work, implemented both by
// the local runtime and the remote client. Asynchrony is device-side: a
// copy queued on a non-default stream may overlap a kernel on another
// stream (the Tesla C1060 has one copy engine and one compute engine), and
// completion is observed through stream/event synchronization.
type AsyncRuntime interface {
	Runtime
	// StreamCreate allocates a stream (cudaStreamCreate).
	StreamCreate() (Stream, error)
	// StreamSynchronize blocks until the stream drains
	// (cudaStreamSynchronize).
	StreamSynchronize(Stream) error
	// StreamQuery reports completion without blocking: nil when the
	// stream has drained, ErrorNotReady while work is pending
	// (cudaStreamQuery).
	StreamQuery(Stream) error
	// EventQuery reports an event's completion without blocking, with
	// the same protocol (cudaEventQuery).
	EventQuery(Event) error
	// StreamDestroy synchronizes and releases a stream
	// (cudaStreamDestroy).
	StreamDestroy(Stream) error
	// MemcpyToDeviceAsync queues a host-to-device copy on a stream
	// (cudaMemcpyAsync).
	MemcpyToDeviceAsync(dst DevicePtr, src []byte, s Stream) error
	// MemcpyToHostAsync queues a device-to-host copy on a stream; dst is
	// only guaranteed meaningful after the stream synchronizes.
	MemcpyToHostAsync(dst []byte, src DevicePtr, s Stream) error
	// LaunchAsync queues a kernel on a stream.
	LaunchAsync(name string, grid, block Dim3, shared uint32, params []byte, s Stream) error
	// EventCreate allocates an event (cudaEventCreate).
	EventCreate() (Event, error)
	// EventRecord snapshots a stream's progress (cudaEventRecord).
	EventRecord(Event, Stream) error
	// EventSynchronize blocks until the event's work completes
	// (cudaEventSynchronize).
	EventSynchronize(Event) error
	// EventElapsed returns the device time between two recorded events
	// (cudaEventElapsedTime).
	EventElapsed(start, end Event) (time.Duration, error)
	// EventDestroy releases an event (cudaEventDestroy).
	EventDestroy(Event) error
}

var _ AsyncRuntime = (*Local)(nil)

// StreamCreate implements AsyncRuntime.
func (l *Local) StreamCreate() (Stream, error) {
	s, err := l.ctx().StreamCreate()
	return Stream(s), MapError(err)
}

// StreamSynchronize implements AsyncRuntime.
func (l *Local) StreamSynchronize(s Stream) error {
	return MapError(l.ctx().StreamSynchronize(uint32(s)))
}

// StreamDestroy implements AsyncRuntime.
func (l *Local) StreamDestroy(s Stream) error {
	return MapError(l.ctx().StreamDestroy(uint32(s)))
}

// StreamQuery implements AsyncRuntime.
func (l *Local) StreamQuery(s Stream) error {
	ready, err := l.ctx().StreamReady(uint32(s))
	if err != nil {
		return MapError(err)
	}
	if !ready {
		return ErrorNotReady
	}
	return nil
}

// EventQuery implements AsyncRuntime.
func (l *Local) EventQuery(e Event) error {
	ready, err := l.ctx().EventReady(uint32(e))
	if err != nil {
		return MapError(err)
	}
	if !ready {
		return ErrorNotReady
	}
	return nil
}

// MemcpyToDeviceAsync implements AsyncRuntime.
func (l *Local) MemcpyToDeviceAsync(dst DevicePtr, src []byte, s Stream) error {
	_, err := l.ctx().CopyToDeviceAsyncAt(uint32(dst), src, uint32(s), l.dev().Clock().Now())
	return MapError(err)
}

// MemcpyToHostAsync implements AsyncRuntime: it reads device memory into dst
// now and books the transfer on the copy engine and the stream from now on.
func (l *Local) MemcpyToHostAsync(dst []byte, src DevicePtr, s Stream) error {
	view, _, err := l.ctx().HostViewAsyncAt(uint32(src), uint32(len(dst)), uint32(s), l.dev().Clock().Now())
	if err != nil {
		return MapError(err)
	}
	copy(dst, view)
	return nil
}

// LaunchAsync implements AsyncRuntime.
func (l *Local) LaunchAsync(name string, grid, block Dim3, shared uint32, params []byte, s Stream) error {
	return MapError(l.ctx().LaunchAsync(name, grid, block, shared, params, uint32(s)))
}

// EventCreate implements AsyncRuntime.
func (l *Local) EventCreate() (Event, error) {
	e, err := l.ctx().EventCreate()
	return Event(e), MapError(err)
}

// EventRecord implements AsyncRuntime.
func (l *Local) EventRecord(e Event, s Stream) error {
	return MapError(l.ctx().EventRecord(uint32(e), uint32(s)))
}

// EventSynchronize implements AsyncRuntime.
func (l *Local) EventSynchronize(e Event) error {
	return MapError(l.ctx().EventSynchronize(uint32(e)))
}

// EventElapsed implements AsyncRuntime.
func (l *Local) EventElapsed(start, end Event) (time.Duration, error) {
	d, err := l.ctx().EventElapsed(uint32(start), uint32(end))
	return d, MapError(err)
}

// EventDestroy implements AsyncRuntime.
func (l *Local) EventDestroy(e Event) error {
	return MapError(l.ctx().EventDestroy(uint32(e)))
}
