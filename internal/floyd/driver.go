package floyd

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"cn/internal/api"
	"cn/internal/archive"
	"cn/internal/core"
	"cn/internal/protocol"
	"cn/internal/task"
)

// Canonical task names, following the paper's Figure 2 descriptor
// (tctask0 = splitter, tctask1..N = workers, tctask999 = joiner).
const (
	SplitTaskName = "tctask0"
	WorkerPrefix  = "tctask"
	JoinTaskName  = "tctask999"
)

// workerParams builds the TCTask parameter list for worker idx (1-based).
func workerParams(idx, workers int) []task.Param {
	return []task.Param{
		{Type: task.TypeInteger, Value: strconv.Itoa(idx)}, // the paper's pvalue0
		{Type: task.TypeInteger, Value: strconv.Itoa(workers)},
		{Type: task.TypeString, Value: WorkerPrefix},
		{Type: task.TypeString, Value: JoinTaskName},
	}
}

// Specs returns the full task list for a transitive-closure job with the
// given worker count, mirroring the paper's descriptor shape.
func Specs(workers int) ([]*task.Spec, error) {
	if workers < 1 {
		return nil, fmt.Errorf("floyd: specs: need >= 1 worker")
	}
	req := task.DefaultRequirements()
	specs := []*task.Spec{{
		Name:    SplitTaskName,
		Archive: JarTaskSplit,
		Class:   ClassTaskSplit,
		Params: []task.Param{
			{Type: task.TypeInteger, Value: strconv.Itoa(workers)},
			{Type: task.TypeString, Value: WorkerPrefix},
		},
		Req: req,
	}}
	var workerNames []string
	for i := 1; i <= workers; i++ {
		name := fmt.Sprintf("%s%d", WorkerPrefix, i)
		workerNames = append(workerNames, name)
		specs = append(specs, &task.Spec{
			Name:      name,
			Archive:   JarTCTask,
			Class:     ClassTCTask,
			DependsOn: []string{SplitTaskName},
			Params:    workerParams(i, workers),
			Req:       req,
		})
	}
	specs = append(specs, &task.Spec{
		Name:      JoinTaskName,
		Archive:   JarTCJoin,
		Class:     ClassTCJoin,
		DependsOn: workerNames,
		Params: []task.Param{
			{Type: task.TypeInteger, Value: strconv.Itoa(workers)},
		},
		Req: req,
	})
	return specs, nil
}

// BuildModel constructs the paper's Figure 3 activity graph (explicit
// concurrency) for the transitive-closure job, with runnable parameters on
// every action state.
func BuildModel(workers int) (*core.Graph, error) {
	specs, err := Specs(workers)
	if err != nil {
		return nil, err
	}
	b := core.NewBuilder("transclosure").Initial("initial")
	for _, s := range specs {
		tags := core.TaskTags(s.Archive, s.Class, s.Req.MemoryMB, s.Req.RunModel.String())
		for i, p := range s.Params {
			tags.SetParam(i, string(p.Type), p.Value)
		}
		b.Action(s.Name, tags)
	}
	b.Final("final").Flow("initial", SplitTaskName)
	if workers == 1 {
		b.Flows(SplitTaskName, WorkerPrefix+"1", JoinTaskName, "final")
		return b.Build()
	}
	b.Fork("fork").Join("joinbar").Flow(SplitTaskName, "fork")
	for i := 1; i <= workers; i++ {
		name := fmt.Sprintf("%s%d", WorkerPrefix, i)
		b.Flow("fork", name).Flow(name, "joinbar")
	}
	b.Flows("joinbar", JoinTaskName, "final")
	return b.Build()
}

// BuildDynamicModel constructs the paper's Figure 5 variant: one dynamic
// invocation worker state whose multiplicity is decided at run time by the
// "rowBlocks" argument expression.
func BuildDynamicModel() (*core.Graph, error) {
	split := core.TaskTags(JarTaskSplit, ClassTaskSplit, 1000, "RUN_AS_THREAD_IN_TM")
	worker := core.TaskTags(JarTCTask, ClassTCTask, 1000, "RUN_AS_THREAD_IN_TM")
	join := core.TaskTags(JarTCJoin, ClassTCJoin, 1000, "RUN_AS_THREAD_IN_TM")
	return core.NewBuilder("transclosure-dynamic").
		Initial("initial").
		Action(SplitTaskName, split).
		DynamicAction(WorkerPrefix, worker, "*", "rowBlocks").
		Action(JoinTaskName, join).
		Final("final").
		Flows("initial", SplitTaskName, WorkerPrefix, JoinTaskName, "final").
		Build()
}

// DynamicArgs returns the run-time argument provider for BuildDynamicModel:
// the "rowBlocks" expression evaluates to one full TCTask argument list per
// worker — index, worker count, prefix, and join task name.
func DynamicArgs(workers int) core.ArgProvider {
	return func(expr string) ([][]task.Param, error) {
		if expr != "rowBlocks" {
			return nil, fmt.Errorf("floyd: unknown argument expression %q", expr)
		}
		lists := make([][]task.Param, workers)
		for i := range lists {
			lists[i] = workerParams(i+1, workers)
		}
		return lists, nil
	}
}

// Archives builds the three task archives (the paper's JAR files).
func Archives() (map[string]*archive.Archive, error) {
	out := make(map[string]*archive.Archive, 3)
	for _, def := range []struct{ jar, class string }{
		{JarTaskSplit, ClassTaskSplit},
		{JarTCTask, ClassTCTask},
		{JarTCJoin, ClassTCJoin},
	} {
		a, err := archive.NewBuilder(def.jar, def.class).Version("1.0").Build()
		if err != nil {
			return nil, fmt.Errorf("floyd: archives: %w", err)
		}
		out[def.jar] = a
	}
	return out, nil
}

// Run executes the transitive-closure job on a CN cluster through the
// client API and returns the all-pairs shortest-path matrix. It is the
// generated client program's core logic: create job, create tasks, start,
// feed the input matrix, await the joiner's result.
func Run(ctx context.Context, cl *api.Client, m *Matrix, workers int) (*Matrix, error) {
	specs, err := Specs(workers)
	if err != nil {
		return nil, err
	}
	archives, err := Archives()
	if err != nil {
		return nil, err
	}
	job, err := cl.CreateJob("transclosure", protocol.JobRequirements{})
	if err != nil {
		return nil, err
	}
	if _, err := job.Submit(specs, archives); err != nil {
		return nil, err
	}
	if err := job.SendMessage(SplitTaskName, EncodeMatrixMessage(m)); err != nil {
		return nil, err
	}
	// GetMessage fails with api.ErrJobFinished once the job has ended and
	// its messages have been read: a result sent before the end is queued
	// by then (TestJobStreamEndsAfterEveryMessage in internal/cluster), so
	// that error here means the job ended without one.
	var result *Matrix
	for result == nil {
		from, data, err := job.GetMessage(ctx)
		if errors.Is(err, api.ErrJobFinished) {
			res, werr := job.Wait(ctx)
			if werr != nil {
				return nil, fmt.Errorf("floyd: run: %w", werr)
			}
			return nil, fmt.Errorf("floyd: run: job terminated without result: %s (%v)", res.Err, res.TaskErrs)
		}
		if err != nil {
			return nil, fmt.Errorf("floyd: run: %w", err)
		}
		if from != JoinTaskName {
			continue
		}
		result, err = DecodeResultMessage(data)
		if err != nil {
			return nil, err
		}
	}
	res, err := job.Wait(ctx)
	if err != nil {
		return nil, err
	}
	if res.Failed {
		return nil, fmt.Errorf("floyd: run: job failed: %s (%v)", res.Err, res.TaskErrs)
	}
	return result, nil
}
