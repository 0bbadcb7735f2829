package workloads

import (
	"context"
	"fmt"
	"strings"

	"cn/internal/api"
	"cn/internal/task"
	"cn/internal/wire"
)

// Word count is the canonical scatter/gather (map/reduce) composition: a
// splitter chunks the input text across mappers, each mapper counts words
// in its chunk, and a reducer merges the partial counts. The shuffle data
// (chunks and partial counts) moves over the direct task-to-task data
// plane — the splitter Puts each mapper's chunk, mappers Get their chunk
// and Put their partial, the reducer Gets every partial — so bulk bytes
// flow TM→TM instead of relaying through the JobManager. Send/Recv remains
// only on the small control edges: the client's input text in, the final
// totals out.

// wcChunkKey/wcPartialKey name the data-plane entries per mapper task.
func wcChunkKey(mapper string) string   { return "wc/chunk/" + mapper }
func wcPartialKey(mapper string) string { return "wc/partial/" + mapper }

// wcChunk is the splitter -> mapper payload.
type wcChunk struct {
	Lines []string
}

func (c wcChunk) appendTo(b []byte) []byte { return wire.AppendStringSlice(b, c.Lines) }

func (c *wcChunk) readFrom(r *wire.Reader) (err error) {
	c.Lines, err = wire.ReadStringSlice(r, "lines")
	return err
}

// wcPartial is the mapper -> reducer payload, and the reducer's result.
type wcPartial struct {
	Counts map[string]int64
}

func (p wcPartial) appendTo(b []byte) []byte { return wire.AppendInt64Map(b, p.Counts) }

func (p *wcPartial) readFrom(r *wire.Reader) (err error) {
	p.Counts, err = wire.ReadInt64Map(r, "counts")
	return err
}

// wcSplit chunks the client-supplied text across mappers.
// Params: [0] mapper count, [1] mapper name prefix.
type wcSplit struct{}

// Run implements task.Task.
func (*wcSplit) Run(ctx task.Context) error {
	mappers, err := task.IntParam(ctx.Params(), 0)
	if err != nil {
		return fmt.Errorf("wordcount split: %w", err)
	}
	prefix, err := task.StringParam(ctx.Params(), 1)
	if err != nil {
		return fmt.Errorf("wordcount split: %w", err)
	}
	_, data, err := ctx.Recv()
	if err != nil {
		return fmt.Errorf("wordcount split: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	for m := 0; m < mappers; m++ {
		lo := m * len(lines) / mappers
		hi := (m + 1) * len(lines) / mappers
		chunk := wcChunk{Lines: lines[lo:hi]}
		mapper := fmt.Sprintf("%s%d", prefix, m+1)
		if err := ctx.Put(wcChunkKey(mapper), chunk.appendTo(nil)); err != nil {
			return fmt.Errorf("wordcount split: publish chunk %d: %w", m, err)
		}
	}
	return nil
}

// wcMap counts words in one chunk, pulling it from the splitter's node and
// publishing the partial under this task's own name. No params.
type wcMap struct{}

// Run implements task.Task.
func (*wcMap) Run(ctx task.Context) error {
	data, err := ctx.Get(context.Background(), wcChunkKey(ctx.TaskName()))
	if err != nil {
		return fmt.Errorf("wordcount map: %w", err)
	}
	var chunk wcChunk
	if err := unmarshal(data, &chunk); err != nil {
		return fmt.Errorf("wordcount map: %w", err)
	}
	counts := make(map[string]int64)
	for _, line := range chunk.Lines {
		for _, w := range strings.Fields(line) {
			counts[strings.ToLower(strings.Trim(w, ".,;:!?\"'()"))]++
		}
	}
	delete(counts, "")
	if err := ctx.Put(wcPartialKey(ctx.TaskName()), wcPartial{Counts: counts}.appendTo(nil)); err != nil {
		return fmt.Errorf("wordcount map: publish partial: %w", err)
	}
	return nil
}

// wcReduce pulls every mapper's partial and reports the total to the
// client. Params: [0] mapper count, [1] mapper name prefix.
type wcReduce struct{}

// Run implements task.Task.
func (*wcReduce) Run(ctx task.Context) error {
	mappers, err := task.IntParam(ctx.Params(), 0)
	if err != nil {
		return fmt.Errorf("wordcount reduce: %w", err)
	}
	prefix, err := task.StringParam(ctx.Params(), 1)
	if err != nil {
		return fmt.Errorf("wordcount reduce: %w", err)
	}
	total := make(map[string]int64)
	for m := 1; m <= mappers; m++ {
		data, err := ctx.Get(context.Background(), wcPartialKey(fmt.Sprintf("%s%d", prefix, m)))
		if err != nil {
			return fmt.Errorf("wordcount reduce: %w", err)
		}
		var p wcPartial
		if err := unmarshal(data, &p); err != nil {
			return fmt.Errorf("wordcount reduce: %w", err)
		}
		for w, c := range p.Counts {
			total[w] += c
		}
	}
	return ctx.SendClient(wcPartial{Counts: total}.appendTo(nil))
}

// WordCountSpecs builds the job's task list: split -> mappers -> reduce.
func WordCountSpecs(mappers int) ([]*task.Spec, error) {
	if mappers < 1 {
		return nil, fmt.Errorf("workloads: word count needs >= 1 mapper")
	}
	const prefix = "map"
	specs := []*task.Spec{{
		Name:   "split",
		Class:  ClassWCSplit,
		Params: []task.Param{intParam(mappers), strParam(prefix)},
		Req:    req(),
	}}
	var names []string
	for i := 1; i <= mappers; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		names = append(names, name)
		specs = append(specs, &task.Spec{
			Name:      name,
			Class:     ClassWCMap,
			DependsOn: []string{"split"},
			Req:       req(),
		})
	}
	specs = append(specs, &task.Spec{
		Name:      "reduce",
		Class:     ClassWCReduce,
		DependsOn: names,
		Params:    []task.Param{intParam(mappers), strParam(prefix)},
		Req:       req(),
	})
	return specs, nil
}

// RunWordCount executes the word-count job on a CN cluster.
func RunWordCount(ctx context.Context, cl *api.Client, text string, mappers int) (map[string]int, error) {
	specs, err := WordCountSpecs(mappers)
	if err != nil {
		return nil, err
	}
	job, err := submitAll(cl, "wordcount", specs)
	if err != nil {
		return nil, err
	}
	if err := job.SendMessage("split", []byte(text)); err != nil {
		return nil, err
	}
	data, err := awaitResult(ctx, job, "reduce")
	if err != nil {
		return nil, err
	}
	var p wcPartial
	if err := unmarshal(data, &p); err != nil {
		return nil, err
	}
	if err := finishJob(ctx, job); err != nil {
		return nil, err
	}
	counts := make(map[string]int, len(p.Counts))
	for w, c := range p.Counts {
		counts[w] = int(c)
	}
	return counts, nil
}

// SequentialWordCount is the single-process baseline.
func SequentialWordCount(text string) map[string]int {
	counts := make(map[string]int)
	for _, w := range strings.Fields(text) {
		counts[strings.ToLower(strings.Trim(w, ".,;:!?\"'()"))]++
	}
	delete(counts, "")
	return counts
}
