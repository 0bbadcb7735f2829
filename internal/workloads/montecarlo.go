package workloads

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"cn/internal/api"
	"cn/internal/task"
	"cn/internal/wire"
)

// Monte-Carlo π estimation: embarrassingly parallel workers draw points in
// the unit square and count hits inside the quarter circle; a reducer
// aggregates. No inter-worker communication — the pattern that stresses
// pure scheduling throughput.

// mcCount is the worker -> reducer payload.
type mcCount struct {
	Inside, Total int64
}

func (c mcCount) appendTo(b []byte) []byte {
	return wire.AppendVarint(wire.AppendVarint(b, c.Inside), c.Total)
}

func (c *mcCount) readFrom(r *wire.Reader) error {
	var errs [2]error
	c.Inside, errs[0] = r.Varint()
	c.Total, errs[1] = r.Varint()
	return errors.Join(errs[:]...)
}

// mcWorker draws samples. Params: [0] samples (Long), [1] seed (Long),
// [2] reducer task name.
type mcWorker struct{}

// Run implements task.Task.
func (*mcWorker) Run(ctx task.Context) error {
	params := ctx.Params()
	samples, err := params[0].Float()
	if err != nil {
		return fmt.Errorf("montecarlo worker: %w", err)
	}
	seedF, err := params[1].Float()
	if err != nil {
		return fmt.Errorf("montecarlo worker: %w", err)
	}
	reducer, err := task.StringParam(params, 2)
	if err != nil {
		return fmt.Errorf("montecarlo worker: %w", err)
	}
	rng := rand.New(rand.NewSource(int64(seedF)))
	n := int64(samples)
	var inside int64
	for i := int64(0); i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		if x*x+y*y <= 1 {
			inside++
		}
	}
	return ctx.Send(reducer, mcCount{Inside: inside, Total: n}.appendTo(nil))
}

// mcReduce aggregates counts into the π estimate. Params: [0] workers.
type mcReduce struct{}

// Run implements task.Task.
func (*mcReduce) Run(ctx task.Context) error {
	workers, err := task.IntParam(ctx.Params(), 0)
	if err != nil {
		return fmt.Errorf("montecarlo reduce: %w", err)
	}
	var inside, total int64
	for received := 0; received < workers; received++ {
		_, data, err := ctx.Recv()
		if err != nil {
			return fmt.Errorf("montecarlo reduce: %w", err)
		}
		var c mcCount
		if err := unmarshal(data, &c); err != nil {
			return fmt.Errorf("montecarlo reduce: %w", err)
		}
		inside += c.Inside
		total += c.Total
	}
	pi := 4 * float64(inside) / float64(total)
	return ctx.SendClient([]byte(strconv.FormatFloat(pi, 'g', 17, 64)))
}

// MonteCarloSpecs builds the job's task list: W independent workers
// feeding one reducer.
func MonteCarloSpecs(workers int, samplesPerWorker int64, seed int64) ([]*task.Spec, error) {
	if workers < 1 {
		return nil, fmt.Errorf("workloads: montecarlo needs >= 1 worker")
	}
	var specs []*task.Spec
	var names []string
	for i := 1; i <= workers; i++ {
		name := fmt.Sprintf("mc%d", i)
		names = append(names, name)
		specs = append(specs, &task.Spec{
			Name:  name,
			Class: ClassMCWorker,
			Params: []task.Param{
				longParam(samplesPerWorker),
				longParam(seed + int64(i)),
				strParam("reduce"),
			},
			Req: req(),
		})
	}
	specs = append(specs, &task.Spec{
		Name:      "reduce",
		Class:     ClassMCReduce,
		DependsOn: names,
		Params:    []task.Param{intParam(workers)},
		Req:       req(),
	})
	return specs, nil
}

// RunMonteCarloPi estimates π on a CN cluster.
func RunMonteCarloPi(ctx context.Context, cl *api.Client, workers int, samplesPerWorker, seed int64) (float64, error) {
	specs, err := MonteCarloSpecs(workers, samplesPerWorker, seed)
	if err != nil {
		return 0, err
	}
	job, err := submitAll(cl, "montecarlo", specs)
	if err != nil {
		return 0, err
	}
	data, err := awaitResult(ctx, job, "reduce")
	if err != nil {
		return 0, err
	}
	pi, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return 0, fmt.Errorf("workloads: parse pi: %w", err)
	}
	if err := finishJob(ctx, job); err != nil {
		return 0, err
	}
	return pi, nil
}
