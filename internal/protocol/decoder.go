package protocol

// A Decoder owns the storage its decoded requests live in, so a connection
// that decodes through one allocates per request type, not per request. The
// lifetime rule is the one the frame-aliasing fields (LaunchRequest.Params,
// MemcpyToDeviceRequest.Data) already follow, extended to the structs: a
// decoded request is valid until the next receive on its connection — until
// the decoder decodes again (DESIGN.md §23). A holder that needs a field
// longer copies it out first.
//
// The zero value is ready. A Decoder belongs to the one goroutine that
// receives on its connection; a slot is made by the first request of its
// type, so a session pays only for the operations it uses. Requests without
// fields need no storage, and the rows a session's request loop never
// serves (session control, migration) decode into fresh memory.
type Decoder struct {
	malloc        *MallocRequest
	free          *FreeRequest
	toDevice      *MemcpyToDeviceRequest
	toHost        *MemcpyToHostRequest
	launch        *LaunchRequest
	streamOp      *StreamOpRequest
	toDeviceAsync *MemcpyToDeviceAsyncRequest
	toHostAsync   *MemcpyToHostAsyncRequest
	eventRecord   *EventRecordRequest
	eventOp       *EventOpRequest
	eventElapsed  *EventElapsedRequest
	setDevice     *SetDeviceRequest
	memset        *MemsetRequest
	d2d           *MemcpyD2DRequest
	streamBegin   *MemcpyStreamBeginRequest
	streamChunk   *MemcpyStreamChunk
	streamEnd     *MemcpyStreamEndRequest
	// name is the kernel name of the last launch decoded: a request loop
	// launches few kernels many times, and only a different name is a new
	// string.
	name  string
	batch *batchStore
}

// batchStore is what a Decoder keeps for OpBatch frames: the request, whose
// Subs and Decoded reuse their arrays, and one slab per batchable op, since
// every sub-op of a frame stays valid while the frame is dispatched.
type batchStore struct {
	req           BatchRequest
	launch        []LaunchRequest
	toDeviceAsync []MemcpyToDeviceAsyncRequest
	eventRecord   []EventRecordRequest
	memset        []MemsetRequest
}

// fresh stands in for a Decoder where a decode has none (DecodeRequest):
// the row decoders recognise it and allocate their result, and its fields
// are never read or written.
var fresh Decoder

// Put stores v in *slot — a connection's storage for one message type, made
// by the first message of the type — and returns it. The message is valid
// until the next Put to the slot. Both ends of a connection build what they
// send this way, and a Decoder keeps what it decodes.
func Put[T any](slot **T, v T) *T {
	if *slot == nil {
		*slot = new(T)
	}
	**slot = v
	return *slot
}

// keep stores a decoded request where it lives — d's slot for the type or,
// for fresh, memory of its own — and returns it.
func keep[T any](d *Decoder, slot **T, v T) *T {
	if d == &fresh {
		var own *T
		slot = &own
	}
	return Put(slot, v)
}

// kernelName returns b as a string, reusing the last launch's when equal.
func (d *Decoder) kernelName(b []byte) string {
	if d == &fresh {
		return string(b)
	}
	if string(b) != d.name { // the comparison does not allocate
		d.name = string(b)
	}
	return d.name
}

// next extends slab by one element and returns it. A slab that outgrows its
// array leaves the elements already handed out where they are, valid as
// long as the batch that points to them.
func next[T any](slab *[]T) *T {
	var zero T
	*slab = append(*slab, zero)
	return &(*slab)[len(*slab)-1]
}

// beginBatch readies d's storage for a frame of up to count sub-ops and
// returns the request to fill.
func (d *Decoder) beginBatch(count int) *BatchRequest {
	if d == &fresh {
		return &BatchRequest{Subs: make([][]byte, 0, count), Decoded: make([]Request, 0, count)}
	}
	if d.batch == nil {
		d.batch = new(batchStore)
	}
	s := d.batch
	s.launch, s.toDeviceAsync = s.launch[:0], s.toDeviceAsync[:0]
	s.eventRecord, s.memset = s.eventRecord[:0], s.memset[:0]
	s.req.Subs, s.req.Decoded = s.req.Subs[:0], s.req.Decoded[:0]
	return &s.req
}

// aimAtSlab points the slot of the batchable op that leads sub at the next
// element of its slab, so that the sub-op about to be decoded lands beside
// its frame's others instead of on top of them. A later request of the type
// outside a batch reuses whichever element the slot was left on.
func (d *Decoder) aimAtSlab(sub []byte) {
	if d == &fresh || len(sub) < 4 {
		return
	}
	switch s := d.batch; Op(getU32(sub, 0)) {
	case OpLaunch:
		d.launch = next(&s.launch)
	case OpMemcpyToDeviceAsync:
		d.toDeviceAsync = next(&s.toDeviceAsync)
	case OpEventRecord:
		d.eventRecord = next(&s.eventRecord)
	case OpMemset:
		d.memset = next(&s.memset)
	}
}
