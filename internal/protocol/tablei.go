package protocol

// This file derives the paper's Table I ("Breakdown of some remote API
// messages") from the protocol implementation, so the published byte
// accounting is regenerated from code rather than transcribed.

// Field is one row of an operation's message breakdown. A size of -1 means
// the field is variable ("x" in the paper).
type Field struct {
	Name    string
	Send    int // bytes in the request; 0 if absent
	Receive int // bytes in the response; 0 if absent
}

// Variable marks a field whose size depends on the operation instance.
const Variable = -1

// Breakdown describes one operation of Table I.
type Breakdown struct {
	Operation string
	Fields    []Field
}

// Totals sums the fixed bytes of the request and response and reports
// whether each direction additionally carries a variable-size region.
func (b Breakdown) Totals() (send int, sendVar bool, recv int, recvVar bool) {
	for _, f := range b.Fields {
		switch f.Send {
		case Variable:
			sendVar = true
		default:
			send += f.Send
		}
		switch f.Receive {
		case Variable:
			recvVar = true
		default:
			recv += f.Receive
		}
	}
	return send, sendVar, recv, recvVar
}

// TableI returns the message breakdown for the most commonly used
// operations, in the paper's order.
func TableI() []Breakdown {
	return []Breakdown{
		{
			Operation: "Initialization",
			Fields: []Field{
				{Name: "Compute capability", Receive: 8},
				{Name: "Size", Send: 4},
				{Name: "Module", Send: Variable},
				{Name: "CUDA error", Receive: 4},
			},
		},
		{
			Operation: "cudaMalloc",
			Fields: []Field{
				{Name: "Function id.", Send: 4},
				{Name: "Size", Send: 4},
				{Name: "CUDA error", Receive: 4},
				{Name: "Device pointer", Receive: 4},
			},
		},
		{
			Operation: "cudaMemcpy (to device)",
			Fields: []Field{
				{Name: "Function id.", Send: 4},
				{Name: "Destination", Send: 4},
				{Name: "Source", Send: 4},
				{Name: "Size", Send: 4},
				{Name: "Kind", Send: 4},
				{Name: "Data", Send: Variable},
				{Name: "CUDA error", Receive: 4},
			},
		},
		{
			Operation: "cudaMemcpy (to host)",
			Fields: []Field{
				{Name: "Function id.", Send: 4},
				{Name: "Destination", Send: 4},
				{Name: "Source", Send: 4},
				{Name: "Size", Send: 4},
				{Name: "Kind", Send: 4},
				{Name: "Data", Receive: Variable},
				{Name: "CUDA error", Receive: 4},
			},
		},
		{
			Operation: "cudaLaunch",
			Fields: []Field{
				{Name: "Function id.", Send: 4},
				{Name: "Texture offset", Send: 4},
				{Name: "Parameters offset", Send: 4},
				{Name: "Number of textures", Send: 4},
				{Name: "Block dimension", Send: 12},
				{Name: "Grid dimension", Send: 8},
				{Name: "Shared size", Send: 4},
				{Name: "Stream", Send: 4},
				{Name: "Kernel name", Send: Variable},
				{Name: "CUDA error", Receive: 4},
			},
		},
		{
			Operation: "cudaFree",
			Fields: []Field{
				{Name: "Function id.", Send: 4},
				{Name: "Device pointer", Send: 4},
				{Name: "CUDA error", Receive: 4},
			},
		},
	}
}

// FixedSendBytes returns the fixed request bytes of an operation as encoded
// by this package (the Table I total with x = 0), so tests can assert that
// the documentation in TableI matches the actual encoders.
func FixedSendBytes(op Op) int {
	switch op {
	case OpInit:
		return (&InitRequest{}).WireSize()
	case OpMalloc:
		return (&MallocRequest{}).WireSize()
	case OpMemcpyToDevice:
		return (&MemcpyToDeviceRequest{}).WireSize()
	case OpMemcpyToHost:
		return (&MemcpyToHostRequest{}).WireSize()
	case OpLaunch:
		// The empty kernel name still carries its NUL terminator, which
		// belongs to the variable region x (a C string of length n
		// occupies n+1 bytes).
		return (&LaunchRequest{}).WireSize() - 1
	case OpFree:
		return (&FreeRequest{}).WireSize()
	case OpDeviceSynchronize:
		return (&SyncRequest{}).WireSize()
	case OpFinalize:
		return (&FinalizeRequest{}).WireSize()
	default:
		return 0
	}
}

// FixedReceiveBytes returns the fixed response bytes of an operation as
// encoded by this package (the Table I total with x = 0).
func FixedReceiveBytes(op Op) int {
	switch op {
	case OpInit:
		return (&InitResponse{}).WireSize()
	case OpMalloc:
		return (&MallocResponse{}).WireSize()
	case OpMemcpyToHost:
		return (&MemcpyToHostResponse{}).WireSize()
	case OpMemcpyToDevice, OpLaunch, OpFree, OpDeviceSynchronize:
		return (&CodeResponse{}).WireSize()
	default:
		return 0
	}
}
