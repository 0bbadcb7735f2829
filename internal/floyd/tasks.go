package floyd

import (
	"errors"
	"fmt"

	"cn/internal/task"
	"cn/internal/wire"
)

// Task class names, in the paper's package style.
const (
	ClassTaskSplit = "org.jhpc.cn2.transcloser.TaskSplit"
	ClassTCTask    = "org.jhpc.cn2.trnsclsrtask.TCTask"
	ClassTCJoin    = "org.jhpc.cn2.transcloser.TaskJoin"
)

// Archive file names, matching the paper's Figure 2 descriptor.
const (
	JarTaskSplit = "tasksplit.jar"
	JarTCTask    = "tctask.jar"
	JarTCJoin    = "taskjoin.jar"
)

// message is the single body exchanged by the transitive-closure tasks:
// rows Start..End of an N-column distance matrix, in Rows. Kind says which:
// the client's "matrix", a worker's "block", the pivot "row" a worker
// broadcasts (one row, Start = k) or a "result".
type message struct {
	Kind  string
	N     int
	Start int
	End   int
	Rows  []int64
}

// encode writes the fields in declaration order with wire's primitives:
// the application owns its encoding, the runtime carries the bytes. Most
// entries of a distance matrix take one or two bytes.
func (m *message) encode() []byte {
	b := wire.AppendString(make([]byte, 0, 32+len(m.Kind)+2*len(m.Rows)), m.Kind)
	b = wire.AppendVarint(wire.AppendVarint(wire.AppendVarint(b, int64(m.N)), int64(m.Start)), int64(m.End))
	return wire.AppendInt64Slice(b, m.Rows)
}

// decodeMessage reads what encode wrote. It refuses truncated input, a
// count past the bytes left, trailing bytes, and rows that do not fill
// Start..End of an N-column matrix, so no task indexes past them (N is
// bounded by the entries present, so it cannot size an allocation either).
func decodeMessage(b []byte) (*message, error) {
	r := wire.NewReader(b)
	m := &message{}
	var errs [5]error
	m.Kind, errs[0] = r.String()
	m.N, errs[1] = r.Int()
	m.Start, errs[2] = r.Int()
	m.End, errs[3] = r.Int()
	m.Rows, errs[4] = wire.ReadInt64Slice(r, "rows")
	err := errors.Join(errs[:]...)
	if err == nil && (r.Len() != 0 || m.Start < 0 || m.Start > m.End || m.End > m.N ||
		m.N > len(m.Rows) && m.N != 0 || len(m.Rows) != (m.End-m.Start)*m.N) {
		err = fmt.Errorf("%q message with %d entries for rows %d..%d of %d and %d bytes left over",
			m.Kind, len(m.Rows), m.Start, m.End, m.N, r.Len())
	}
	if err != nil {
		return nil, fmt.Errorf("floyd: decode message: %w", err)
	}
	return m, nil
}

// workerName returns the conventional worker task name (1-based), e.g.
// tctask1..tctaskN like the paper's descriptor.
func workerName(prefix string, idx int) string {
	return fmt.Sprintf("%s%d", prefix, idx+1)
}

// Register binds the three task classes into a registry. Deployments call
// this once per process, the way the paper's JAR files are installed on
// every node.
func Register(r *task.Registry) error {
	if err := r.Register(ClassTaskSplit, func() task.Task { return &TaskSplit{} }); err != nil {
		return err
	}
	if err := r.Register(ClassTCTask, func() task.Task { return &TCTask{} }); err != nil {
		return err
	}
	return r.Register(ClassTCJoin, func() task.Task { return &TCJoin{} })
}

// MustRegister is Register but panics on error.
func MustRegister(r *task.Registry) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// TaskSplit "reads the input and initializes the worker tasks with the
// appropriate rows" (paper §2). Its input matrix arrives as a user message
// from the client; parameters: [0] workers (Integer), [1] worker name
// prefix (String).
type TaskSplit struct{}

// Run implements task.Task.
func (*TaskSplit) Run(ctx task.Context) error {
	params := ctx.Params()
	workers, err := task.IntParam(params, 0)
	if err != nil {
		return fmt.Errorf("floyd: split: %w", err)
	}
	prefix, err := task.StringParam(params, 1)
	if err != nil {
		return fmt.Errorf("floyd: split: %w", err)
	}
	if workers < 1 {
		return fmt.Errorf("floyd: split: %d workers", workers)
	}
	// The client sends the input matrix after starting the job; anything
	// else that arrives first, undecodable bytes included, is skipped.
	var m *Matrix
	for m == nil {
		from, data, err := ctx.Recv()
		if err != nil {
			return fmt.Errorf("floyd: split: waiting for matrix: %w", err)
		}
		w, err := decodeMessage(data)
		switch {
		case err != nil:
			ctx.Logf("split: ignoring a message from %s: %v", from, err)
		case w.Kind != "matrix" || w.Start != 0 || w.End != w.N:
			ctx.Logf("split: ignoring %q message from %s", w.Kind, from)
		default:
			m = &Matrix{N: w.N, D: w.Rows}
		}
	}
	if workers > m.N {
		return fmt.Errorf("floyd: split: %d workers for %d rows (algorithm allows at most N tasks)", workers, m.N)
	}
	for w := 0; w < workers; w++ {
		start, end := BlockBounds(m.N, workers, w)
		block := &message{
			Kind:  "block",
			N:     m.N,
			Start: start,
			End:   end,
			Rows:  append([]int64(nil), m.D[start*m.N:end*m.N]...),
		}
		if err := ctx.Send(workerName(prefix, w), block.encode()); err != nil {
			return fmt.Errorf("floyd: split: send block %d: %w", w, err)
		}
	}
	ctx.Logf("split: distributed %d rows to %d workers", m.N, workers)
	return nil
}

// TCTask is one worker: "Each task has one or more adjacent rows of the
// adjacency matrix ... in the kth step, each task requires, in addition to
// the rows assigned to it, the kth row" (paper §2). Parameters: [0] worker
// index 1..W (Integer, the paper's pvalue0), [1] workers W (Integer), [2]
// worker name prefix (String), [3] join task name (String).
type TCTask struct{}

// Run implements task.Task.
func (*TCTask) Run(ctx task.Context) error {
	params := ctx.Params()
	idx1, err := task.IntParam(params, 0)
	if err != nil {
		return fmt.Errorf("floyd: worker: %w", err)
	}
	workers, err := task.IntParam(params, 1)
	if err != nil {
		return fmt.Errorf("floyd: worker: %w", err)
	}
	prefix, err := task.StringParam(params, 2)
	if err != nil {
		return fmt.Errorf("floyd: worker: %w", err)
	}
	joinName, err := task.StringParam(params, 3)
	if err != nil {
		return fmt.Errorf("floyd: worker: %w", err)
	}
	self := idx1 - 1

	// Out-of-order tolerant receive: rows for future steps are buffered.
	pendingRows := make(map[int][]int64)
	var block *message
	recvNext := func() error {
		_, data, err := ctx.Recv()
		if err != nil {
			return err
		}
		w, err := decodeMessage(data)
		if err != nil {
			return err
		}
		switch w.Kind {
		case "block":
			block = w
		case "row":
			pendingRows[w.Start] = w.Rows
		default:
			ctx.Logf("worker: ignoring %q message", w.Kind)
		}
		return nil
	}
	for block == nil {
		if err := recvNext(); err != nil {
			return fmt.Errorf("floyd: worker %d: waiting for block: %w", idx1, err)
		}
	}
	n := block.N
	start, end := block.Start, block.End
	// Local sub-matrix holds only this worker's rows: local row i is row
	// start+i.
	local := &Matrix{N: n, D: block.Rows}

	for k := 0; k < n; k++ {
		var rowK []int64
		if OwnerOf(n, workers, k) == self {
			// "in the kth iteration have the task with the kth row
			// broadcast it" — point-to-point to every sibling worker, which
			// is CN broadcast semantics restricted to the worker group.
			rowK = append([]int64(nil), local.Row(k-start)...)
			rm := (&message{Kind: "row", N: n, Start: k, End: k + 1, Rows: rowK}).encode()
			for w := 0; w < workers; w++ {
				if w == self {
					continue
				}
				if err := ctx.Send(workerName(prefix, w), rm); err != nil {
					return fmt.Errorf("floyd: worker %d: broadcast row %d: %w", idx1, k, err)
				}
			}
		} else {
			for pendingRows[k] == nil {
				if err := recvNext(); err != nil {
					return fmt.Errorf("floyd: worker %d: waiting for row %d: %w", idx1, k, err)
				}
			}
			rowK = pendingRows[k]
			delete(pendingRows, k)
		}
		UpdateRows(local, 0, end-start, k, rowK)
	}
	res := &message{Kind: "result", N: n, Start: start, End: end, Rows: local.D}
	if err := ctx.Send(joinName, res.encode()); err != nil {
		return fmt.Errorf("floyd: worker %d: send result: %w", idx1, err)
	}
	return nil
}

// TCJoin collates the results ("The collation of the results is done by yet
// another task named TCJoin") and returns the assembled matrix to the
// client. Parameters: [0] workers W (Integer).
type TCJoin struct{}

// Run implements task.Task.
func (*TCJoin) Run(ctx task.Context) error {
	workers, err := task.IntParam(ctx.Params(), 0)
	if err != nil {
		return fmt.Errorf("floyd: join: %w", err)
	}
	var out *Matrix
	received := 0
	for received < workers {
		_, data, err := ctx.Recv()
		if err != nil {
			return fmt.Errorf("floyd: join: %w", err)
		}
		w, err := decodeMessage(data)
		if err != nil {
			return err
		}
		if w.Kind != "result" {
			ctx.Logf("join: ignoring %q message", w.Kind)
			continue
		}
		if out == nil {
			out = NewMatrix(w.N)
		}
		copy(out.D[w.Start*w.N:w.End*w.N], w.Rows)
		received++
	}
	final := &message{Kind: "result", N: out.N, Start: 0, End: out.N, Rows: out.D}
	if err := ctx.SendClient(final.encode()); err != nil {
		return fmt.Errorf("floyd: join: send to client: %w", err)
	}
	return nil
}

// EncodeMatrixMessage packages a matrix as the user message TaskSplit
// expects from the client.
func EncodeMatrixMessage(m *Matrix) []byte {
	return (&message{Kind: "matrix", N: m.N, End: m.N, Rows: m.D}).encode()
}

// DecodeResultMessage unpacks TCJoin's final result message.
func DecodeResultMessage(data []byte) (*Matrix, error) {
	w, err := decodeMessage(data)
	if err != nil {
		return nil, err
	}
	if w.Kind != "result" {
		return nil, fmt.Errorf("floyd: expected result message, got %q", w.Kind)
	}
	return &Matrix{N: w.N, D: w.Rows}, nil
}
