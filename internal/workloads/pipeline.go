package workloads

import (
	"context"
	"fmt"
	"strings"

	"cn/internal/api"
	"cn/internal/task"
)

// Pipeline: a linear chain of transform stages. Each stage depends on its
// predecessor, so the JobManager starts them strictly in order. Stage
// outputs move over the direct task-to-task data plane: each stage Puts its
// result under its own name and the successor Gets it straight from the
// producing node, so the JobManager brokers locations instead of relaying
// payloads. Send/Recv remains on the control edges only: the client's input
// into stage1 and the final stage's result back out.

// Pipeline stage operations.
const (
	StageUpper   = "upper"
	StageReverse = "reverse"
	StageTrim    = "trim"
	StagePrefix  = "prefix" // prepends "cn:"
)

// applyStage runs one transform.
func applyStage(op, in string) (string, error) {
	switch op {
	case StageUpper:
		return strings.ToUpper(in), nil
	case StageReverse:
		r := []rune(in)
		for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
			r[i], r[j] = r[j], r[i]
		}
		return string(r), nil
	case StageTrim:
		return strings.TrimSpace(in), nil
	case StagePrefix:
		return "cn:" + in, nil
	}
	return "", fmt.Errorf("workloads: unknown pipeline stage op %q", op)
}

// SequentialPipeline is the in-process baseline.
func SequentialPipeline(input string, ops []string) (string, error) {
	out := input
	for _, op := range ops {
		var err error
		out, err = applyStage(op, out)
		if err != nil {
			return "", err
		}
	}
	return out, nil
}

// pipeKey names a stage's data-plane output entry.
func pipeKey(stage string) string { return "pipe/out/" + stage }

// pipeStage obtains a string, transforms it, and publishes the result.
// Params: [0] operation, [1] predecessor task name ("client" receives the
// input from the client's mailbox instead), [2] successor task name
// ("client" sends the final result back instead of publishing).
type pipeStage struct{}

// Run implements task.Task.
func (*pipeStage) Run(ctx task.Context) error {
	op, err := task.StringParam(ctx.Params(), 0)
	if err != nil {
		return fmt.Errorf("pipeline stage: %w", err)
	}
	prev, err := task.StringParam(ctx.Params(), 1)
	if err != nil {
		return fmt.Errorf("pipeline stage: %w", err)
	}
	next, err := task.StringParam(ctx.Params(), 2)
	if err != nil {
		return fmt.Errorf("pipeline stage: %w", err)
	}
	var data []byte
	if prev == "client" {
		_, data, err = ctx.Recv()
	} else {
		data, err = ctx.Get(context.Background(), pipeKey(prev))
	}
	if err != nil {
		return fmt.Errorf("pipeline stage: %w", err)
	}
	out, err := applyStage(op, string(data))
	if err != nil {
		return err
	}
	if next == "client" {
		return ctx.SendClient([]byte(out))
	}
	return ctx.Put(pipeKey(ctx.TaskName()), []byte(out))
}

// PipelineSpecs builds a chain of stages, one per operation.
func PipelineSpecs(ops []string) ([]*task.Spec, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("workloads: pipeline needs >= 1 stage")
	}
	specs := make([]*task.Spec, 0, len(ops))
	for i, op := range ops {
		prev := "client"
		if i > 0 {
			prev = fmt.Sprintf("stage%d", i)
		}
		next := "client"
		if i+1 < len(ops) {
			next = fmt.Sprintf("stage%d", i+2)
		}
		s := &task.Spec{
			Name:   fmt.Sprintf("stage%d", i+1),
			Class:  ClassPipeStage,
			Params: []task.Param{strParam(op), strParam(prev), strParam(next)},
			Req:    req(),
		}
		if i > 0 {
			s.DependsOn = []string{prev}
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// RunPipeline executes the stage chain on a CN cluster.
func RunPipeline(ctx context.Context, cl *api.Client, input string, ops []string) (string, error) {
	specs, err := PipelineSpecs(ops)
	if err != nil {
		return "", err
	}
	job, err := submitAll(cl, "pipeline", specs)
	if err != nil {
		return "", err
	}
	if err := job.SendMessage("stage1", []byte(input)); err != nil {
		return "", err
	}
	lastStage := fmt.Sprintf("stage%d", len(ops))
	data, err := awaitResult(ctx, job, lastStage)
	if err != nil {
		return "", err
	}
	if err := finishJob(ctx, job); err != nil {
		return "", err
	}
	return string(data), nil
}
