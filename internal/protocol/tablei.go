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
