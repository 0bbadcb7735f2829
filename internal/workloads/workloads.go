// Package workloads provides additional CN applications beyond the paper's
// transitive-closure guiding example, exercising the composition patterns
// the introduction motivates: scatter/gather map-reduce (word count), block
// matrix multiplication, embarrassingly parallel Monte-Carlo estimation,
// and sequential pipelines. Each workload ships its task classes, a
// registry hook, and a client driver.
package workloads

import (
	"context"
	"errors"
	"fmt"

	"cn/internal/api"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/wire"
)

// Task class names.
const (
	ClassWCSplit   = "cn.workloads.wordcount.Split"
	ClassWCMap     = "cn.workloads.wordcount.Map"
	ClassWCReduce  = "cn.workloads.wordcount.Reduce"
	ClassMMSplit   = "cn.workloads.matmul.Split"
	ClassMMWorker  = "cn.workloads.matmul.Worker"
	ClassMMJoin    = "cn.workloads.matmul.Join"
	ClassMCWorker  = "cn.workloads.montecarlo.Worker"
	ClassMCReduce  = "cn.workloads.montecarlo.Reduce"
	ClassPipeStage = "cn.workloads.pipeline.Stage"
)

// Register binds every workload task class into a registry.
func Register(r *task.Registry) error {
	for class, f := range map[string]task.Factory{
		ClassWCSplit:   func() task.Task { return &wcSplit{} },
		ClassWCMap:     func() task.Task { return &wcMap{} },
		ClassWCReduce:  func() task.Task { return &wcReduce{} },
		ClassMMSplit:   func() task.Task { return &mmSplit{} },
		ClassMMWorker:  func() task.Task { return &mmWorker{} },
		ClassMMJoin:    func() task.Task { return &mmJoin{} },
		ClassMCWorker:  func() task.Task { return &mcWorker{} },
		ClassMCReduce:  func() task.Task { return &mcReduce{} },
		ClassPipeStage: func() task.Task { return &pipeStage{} },
	} {
		if err := r.Register(class, f); err != nil {
			return err
		}
	}
	return nil
}

// MustRegister is Register but panics on error.
func MustRegister(r *task.Registry) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// intParam formats an integer task parameter.
func intParam(v int) task.Param {
	return task.Param{Type: task.TypeInteger, Value: fmt.Sprintf("%d", v)}
}

// strParam formats a string task parameter.
func strParam(v string) task.Param {
	return task.Param{Type: task.TypeString, Value: v}
}

// longParam formats a long task parameter.
func longParam(v int64) task.Param {
	return task.Param{Type: task.TypeLong, Value: fmt.Sprintf("%d", v)}
}

// req is the standard small requirement block for workload tasks.
func req() task.Requirements {
	return task.Requirements{MemoryMB: 200, RunModel: task.RunAsThreadInTM}
}

// payload is a message body the workload tasks exchange. Its encoding is
// the application's own: each type appends its fields with wire's
// primitives and reads them back in the same order.
type payload interface {
	appendTo(b []byte) []byte
	readFrom(r *wire.Reader) error
}

// unmarshal decodes b into p, refusing truncated input and trailing bytes.
func unmarshal(b []byte, p payload) error {
	r := wire.NewReader(b)
	err := p.readFrom(r)
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Len())
	}
	if err != nil {
		return fmt.Errorf("workloads: decode %T: %w", p, err)
	}
	return nil
}

// awaitResult pumps job messages until one arrives from the named task,
// failing when the job ended without one.
func awaitResult(ctx context.Context, job *api.Job, fromTask string) ([]byte, error) {
	for {
		from, data, err := job.GetMessage(ctx)
		if errors.Is(err, api.ErrJobFinished) {
			res, werr := job.Wait(ctx)
			if werr != nil {
				return nil, fmt.Errorf("workloads: %w", werr)
			}
			return nil, fmt.Errorf("workloads: job terminated without result: %s (%v)", res.Err, res.TaskErrs)
		}
		if err != nil {
			return nil, fmt.Errorf("workloads: %w", err)
		}
		if from == fromTask {
			return data, nil
		}
	}
}

// finishJob waits for clean termination after the result arrived.
func finishJob(ctx context.Context, job *api.Job) error {
	res, err := job.Wait(ctx)
	if err != nil {
		return err
	}
	if res.Failed {
		return fmt.Errorf("workloads: job failed: %s (%v)", res.Err, res.TaskErrs)
	}
	return nil
}

// submitAll creates a job and submits the given specs to it, started: one
// frame to the JobManager.
func submitAll(cl *api.Client, name string, specs []*task.Spec) (*api.Job, error) {
	job, err := cl.CreateJob(name, protocol.JobRequirements{})
	if err != nil {
		return nil, err
	}
	if _, err := job.Submit(specs, nil); err != nil {
		return nil, err
	}
	return job, nil
}
