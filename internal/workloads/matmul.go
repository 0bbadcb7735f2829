package workloads

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"cn/internal/api"
	"cn/internal/task"
	"cn/internal/wire"
)

// Block matrix multiplication: the splitter ships each worker a block of
// A's rows plus all of B; workers compute their C rows; the joiner
// assembles C. This is the classic data-parallel kernel the paper's
// audience ("scientific and other applications that lend themselves to
// parallel computing") runs on Beowulf-class clusters.

// Dense is a dense row-major integer matrix.
type Dense struct {
	Rows, Cols int
	V          []int64
}

// NewDense allocates a zero matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, V: make([]int64, rows*cols)}
}

// At returns m[i,j].
func (m *Dense) At(i, j int) int64 { return m.V[i*m.Cols+j] }

// Set assigns m[i,j].
func (m *Dense) Set(i, j int, v int64) { m.V[i*m.Cols+j] = v }

// Equal reports element-wise equality.
func (m *Dense) Equal(o *Dense) bool {
	if o == nil || m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.V {
		if o.V[i] != v {
			return false
		}
	}
	return true
}

// RandomDense generates a deterministic random matrix with entries in
// [-9, 9].
func RandomDense(rows, cols int, seed int64) *Dense {
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(rows, cols)
	for i := range m.V {
		m.V[i] = rng.Int63n(19) - 9
	}
	return m
}

// MatMulSeq is the sequential baseline: C = A x B.
func MatMulSeq(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("workloads: matmul: %dx%d times %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.V[i*c.Cols+j] += aik * b.At(k, j)
			}
		}
	}
	return c, nil
}

// mmInput is the client -> splitter payload.
type mmInput struct {
	A, B *Dense
}

// mmBlock is the splitter -> worker payload.
type mmBlock struct {
	StartRow int
	ARows    *Dense // block of A rows
	B        *Dense
}

// mmResult is the worker -> joiner payload.
type mmResult struct {
	StartRow int
	CRows    *Dense
	OutRows  int // total rows of C
}

// appendTo appends a matrix's shape and entries.
func (m *Dense) appendTo(b []byte) []byte {
	b = wire.AppendVarint(wire.AppendVarint(b, int64(m.Rows)), int64(m.Cols))
	return wire.AppendInt64Slice(b, m.V)
}

// readDense reads what appendTo wrote and refuses a shape its entries do
// not fill, so no task indexes past them.
func readDense(r *wire.Reader) (*Dense, error) {
	m := &Dense{}
	var errs [3]error
	m.Rows, errs[0] = r.Int()
	m.Cols, errs[1] = r.Int()
	m.V, errs[2] = wire.ReadInt64Slice(r, "matrix entries")
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	if m.Rows < 0 || m.Cols < 0 || m.Cols == 0 && len(m.V) != 0 ||
		m.Cols > 0 && (len(m.V)%m.Cols != 0 || len(m.V)/m.Cols != m.Rows) {
		return nil, fmt.Errorf("a %dx%d matrix of %d entries", m.Rows, m.Cols, len(m.V))
	}
	return m, nil
}

func (in mmInput) appendTo(b []byte) []byte { return in.B.appendTo(in.A.appendTo(b)) }

func (in *mmInput) readFrom(r *wire.Reader) error {
	var errs [2]error
	in.A, errs[0] = readDense(r)
	in.B, errs[1] = readDense(r)
	return errors.Join(errs[:]...)
}

func (bl mmBlock) appendTo(b []byte) []byte {
	return bl.B.appendTo(bl.ARows.appendTo(wire.AppendVarint(b, int64(bl.StartRow))))
}

func (bl *mmBlock) readFrom(r *wire.Reader) error {
	var errs [3]error
	bl.StartRow, errs[0] = r.Int()
	bl.ARows, errs[1] = readDense(r)
	bl.B, errs[2] = readDense(r)
	return errors.Join(errs[:]...)
}

func (res mmResult) appendTo(b []byte) []byte {
	return wire.AppendVarint(res.CRows.appendTo(wire.AppendVarint(b, int64(res.StartRow))), int64(res.OutRows))
}

func (res *mmResult) readFrom(r *wire.Reader) error {
	var errs [3]error
	res.StartRow, errs[0] = r.Int()
	res.CRows, errs[1] = readDense(r)
	res.OutRows, errs[2] = r.Int()
	return errors.Join(errs[:]...)
}

// mmSplit distributes row blocks. Params: [0] workers, [1] prefix.
type mmSplit struct{}

// Run implements task.Task.
func (*mmSplit) Run(ctx task.Context) error {
	workers, err := task.IntParam(ctx.Params(), 0)
	if err != nil {
		return fmt.Errorf("matmul split: %w", err)
	}
	prefix, err := task.StringParam(ctx.Params(), 1)
	if err != nil {
		return fmt.Errorf("matmul split: %w", err)
	}
	_, data, err := ctx.Recv()
	if err != nil {
		return fmt.Errorf("matmul split: %w", err)
	}
	var in mmInput
	if err := unmarshal(data, &in); err != nil {
		return fmt.Errorf("matmul split: %w", err)
	}
	if in.A.Cols != in.B.Rows {
		return fmt.Errorf("matmul split: shape mismatch %dx%d x %dx%d", in.A.Rows, in.A.Cols, in.B.Rows, in.B.Cols)
	}
	for w := 0; w < workers; w++ {
		lo := w * in.A.Rows / workers
		hi := (w + 1) * in.A.Rows / workers
		block := mmBlock{
			StartRow: lo,
			ARows:    &Dense{Rows: hi - lo, Cols: in.A.Cols, V: in.A.V[lo*in.A.Cols : hi*in.A.Cols]},
			B:        in.B,
		}
		if err := ctx.Send(fmt.Sprintf("%s%d", prefix, w+1), block.appendTo(nil)); err != nil {
			return fmt.Errorf("matmul split: send block %d: %w", w, err)
		}
	}
	return nil
}

// mmWorker multiplies its block. Params: [0] join task name, [1] total
// output rows.
type mmWorker struct{}

// Run implements task.Task.
func (*mmWorker) Run(ctx task.Context) error {
	join, err := task.StringParam(ctx.Params(), 0)
	if err != nil {
		return fmt.Errorf("matmul worker: %w", err)
	}
	outRows, err := task.IntParam(ctx.Params(), 1)
	if err != nil {
		return fmt.Errorf("matmul worker: %w", err)
	}
	_, data, err := ctx.Recv()
	if err != nil {
		return fmt.Errorf("matmul worker: %w", err)
	}
	var block mmBlock
	if err := unmarshal(data, &block); err != nil {
		return fmt.Errorf("matmul worker: %w", err)
	}
	c, err := MatMulSeq(block.ARows, block.B)
	if err != nil {
		return fmt.Errorf("matmul worker: %w", err)
	}
	res := mmResult{StartRow: block.StartRow, CRows: c, OutRows: outRows}
	return ctx.Send(join, res.appendTo(nil))
}

// mmJoin assembles C. Params: [0] workers.
type mmJoin struct{}

// Run implements task.Task.
func (*mmJoin) Run(ctx task.Context) error {
	workers, err := task.IntParam(ctx.Params(), 0)
	if err != nil {
		return fmt.Errorf("matmul join: %w", err)
	}
	var out *Dense
	for received := 0; received < workers; received++ {
		_, data, err := ctx.Recv()
		if err != nil {
			return fmt.Errorf("matmul join: %w", err)
		}
		var res mmResult
		if err := unmarshal(data, &res); err != nil {
			return fmt.Errorf("matmul join: %w", err)
		}
		if out == nil {
			out = NewDense(res.OutRows, res.CRows.Cols)
		}
		copy(out.V[res.StartRow*out.Cols:], res.CRows.V)
	}
	return ctx.SendClient(mmResult{CRows: out}.appendTo(nil))
}

// MatMulSpecs builds the job's task list.
func MatMulSpecs(workers, outRows int) ([]*task.Spec, error) {
	if workers < 1 {
		return nil, fmt.Errorf("workloads: matmul needs >= 1 worker")
	}
	const prefix = "mul"
	specs := []*task.Spec{{
		Name:   "split",
		Class:  ClassMMSplit,
		Params: []task.Param{intParam(workers), strParam(prefix)},
		Req:    req(),
	}}
	var names []string
	for i := 1; i <= workers; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		names = append(names, name)
		specs = append(specs, &task.Spec{
			Name:      name,
			Class:     ClassMMWorker,
			DependsOn: []string{"split"},
			Params:    []task.Param{strParam("join"), intParam(outRows)},
			Req:       req(),
		})
	}
	specs = append(specs, &task.Spec{
		Name:      "join",
		Class:     ClassMMJoin,
		DependsOn: names,
		Params:    []task.Param{intParam(workers)},
		Req:       req(),
	})
	return specs, nil
}

// RunMatMul executes C = A x B on a CN cluster with the given worker count.
func RunMatMul(ctx context.Context, cl *api.Client, a, b *Dense, workers int) (*Dense, error) {
	if workers > a.Rows {
		workers = a.Rows
	}
	specs, err := MatMulSpecs(workers, a.Rows)
	if err != nil {
		return nil, err
	}
	job, err := submitAll(cl, "matmul", specs)
	if err != nil {
		return nil, err
	}
	if err := job.SendMessage("split", mmInput{A: a, B: b}.appendTo(nil)); err != nil {
		return nil, err
	}
	data, err := awaitResult(ctx, job, "join")
	if err != nil {
		return nil, err
	}
	var res mmResult
	if err := unmarshal(data, &res); err != nil {
		return nil, err
	}
	if err := finishJob(ctx, job); err != nil {
		return nil, err
	}
	return res.CRows, nil
}
