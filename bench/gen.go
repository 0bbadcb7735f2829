package main

// Seeded input generation. Everything the cluster receives — CNX and XMI
// bodies, the open-loop arrival schedule, shuffle payloads, tuple values —
// is derived from -seed here; the program under test sees only the bytes.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"time"

	"cn/internal/cnx"
	"cn/internal/core"
	"cn/internal/task"
	"cn/internal/transform"
)

const (
	noopClass   = "cn.Noop"
	noopArchive = "noop.jar"

	fanoutTasks = 32

	// mix_open job shapes and their shares of the arrival stream.
	mixChainTasks  = 4
	mixFanTasks    = 64
	mixChainShare  = 0.6
	mixXMIShare    = 0.3
	mixRate        = 40.0 // mean jobs per second
	mixBurstSize   = 5
	mixBurstChance = 0.1

	// shuffle_bulk geometry: every mapper Puts one blob per reducer, every
	// reducer Gets one blob per mapper. 3 MiB is exactly four 768 KiB pull
	// chunks.
	shuffleMappers  = 4
	shuffleReducers = 2
	shuffleBlob     = 3 << 20
	shuffleTagBytes = 16
	shuffleJobBytes = shuffleMappers * shuffleReducers * shuffleBlob

	// bag_ts geometry.
	bagWorkers = 8
	bagItems   = 1024
	// setupBagItems is the size of the bag that proves a boot: a full bag is
	// 0.15 s of steady-state tuple traffic, twenty times the set-up before it.
	setupBagItems = 64
)

// bagOps is the tuple-op count of one clean bag job: the client's Outs and
// Ins, the workers' Ins and Outs, plus one poison Out and In per worker.
func bagOps(items int) int { return 4*items + 2*bagWorkers }

var mixInvocations = [...]int{4, 8, 16}

// taskDecl is one no-op task with a seeded memory grant, so bodies differ
// between seeds without changing what the cluster has to do.
func taskDecl(rng *rand.Rand, name, depends string) cnx.TaskDecl {
	return cnx.TaskDecl{
		Name: name, Jar: noopArchive, Class: noopClass, Depends: depends,
		Req: &cnx.ReqXML{Memory: 8 + rng.Intn(8), RunModel: task.RunAsThreadInTM.String()},
	}
}

func encodeCNX(class, job string, tasks []cnx.TaskDecl) []byte {
	doc := &cnx.Document{Client: cnx.Client{Class: class, Jobs: []cnx.Job{{Name: job, Tasks: tasks}}}}
	s, err := doc.EncodeString()
	if err != nil {
		panic(fmt.Sprintf("bench: encode generated CNX: %v", err)) // generator bug
	}
	return []byte(s)
}

// fanCNX is a CNX body of n independent no-op tasks.
func fanCNX(rng *rand.Rand, tag string, n int) []byte {
	tasks := make([]cnx.TaskDecl, n)
	for i := range tasks {
		tasks[i] = taskDecl(rng, fmt.Sprintf("t%02d", i), "")
	}
	return encodeCNX("Fan"+tag, "fan"+tag, tasks)
}

// chainCNX is a CNX body of n no-op tasks, each depending on the previous.
func chainCNX(rng *rand.Rand, tag string, n int) []byte {
	tasks := make([]cnx.TaskDecl, n)
	for i := range tasks {
		dep := ""
		if i > 0 {
			dep = fmt.Sprintf("s%d", i-1)
		}
		tasks[i] = taskDecl(rng, fmt.Sprintf("s%d", i), dep)
	}
	return encodeCNX("Chain"+tag, "chain"+tag, tasks)
}

// dynamicXMI is the paper's Figure 5 shape as a UML tool would export it:
// split, a dynamic-invocation worker state, join. The invocation count is
// supplied at submit time.
func dynamicXMI(rng *rand.Rand, tag string) []byte {
	tags := func() core.TaggedValues {
		return core.TaskTags(noopArchive, noopClass, 8+rng.Intn(8), task.RunAsThreadInTM.String())
	}
	g, err := core.NewBuilder("dyn"+tag).
		Initial("initial").
		Action("split", tags()).
		DynamicAction("work", tags(), "*", "n").
		Action("join", tags()).
		Final("final").
		Flows("initial", "split", "work", "join", "final").
		Build()
	if err != nil {
		panic(fmt.Sprintf("bench: build dynamic model: %v", err))
	}
	model := core.NewClient("Dyn" + tag)
	if err := model.AddJob(g); err != nil {
		panic(fmt.Sprintf("bench: build dynamic model: %v", err))
	}
	doc, err := transform.ToXMI(model)
	if err != nil {
		panic(fmt.Sprintf("bench: export dynamic model: %v", err))
	}
	s, err := doc.WriteString()
	if err != nil {
		panic(fmt.Sprintf("bench: export dynamic model: %v", err))
	}
	return []byte(s)
}

// submission is one generated portal request.
type submission struct {
	Kind        string // "fan32", "chain4", "xmi4", "xmi8", "xmi16", "fan64"
	Format      string // "cnx" or "xmi"
	Invocations int    // xmi only
	Tasks       int    // tasks the compiled job must report done
	Body        []byte
}

// bodyPool is how many distinct bodies of each kind a run cycles through.
const bodyPool = 16

// fanoutBodies is fanout_closed's input: a pool of 32-task bodies.
func fanoutBodies(seed int64) []submission {
	rng := rand.New(rand.NewSource(seed))
	out := make([]submission, bodyPool)
	for i := range out {
		out[i] = submission{Kind: "fan32", Format: "cnx", Tasks: fanoutTasks,
			Body: fanCNX(rng, fmt.Sprintf("%d_%d", seed, i), fanoutTasks)}
	}
	return out
}

// arrival is one job of the open-loop schedule.
type arrival struct {
	Due  time.Duration // offset from the start of the schedule
	Head bool          // first job of its arrival event (a burst's other jobs share its due time)
	Sub  submission
}

// mixSchedule is mix_open's input over the given consecutive spans (warm-up,
// then the window). Within each span arrival events are a Poisson process
// conditioned on its expected count — sorted uniform times, so the gaps are
// exponential but every seed offers the same load — at a rate chosen so the
// mean is mixRate jobs/s once one event in ten is a burst of five. Which
// events burst and which shape each job has are shuffled decks holding the
// exact 10 % and 60/30/10 proportions: seeds differ in order and timing, not
// in how much work the span holds.
func mixSchedule(seed int64, spans ...time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	chains := make([][]byte, bodyPool)
	xmis := make([][]byte, bodyPool)
	fans := make([][]byte, bodyPool)
	for i := 0; i < bodyPool; i++ {
		tag := fmt.Sprintf("%d_%d", seed, i)
		chains[i] = chainCNX(rng, tag, mixChainTasks)
		xmis[i] = dynamicXMI(rng, tag)
		fans[i] = fanCNX(rng, tag, mixFanTasks)
	}
	shape := func(i, jobs int) submission {
		pick := rng.Intn(bodyPool)
		switch share := float64(i) / float64(jobs); {
		case share < mixChainShare:
			return submission{Kind: "chain4", Format: "cnx", Tasks: mixChainTasks, Body: chains[pick]}
		case share < mixChainShare+mixXMIShare:
			inv := mixInvocations[i%len(mixInvocations)]
			return submission{Kind: fmt.Sprintf("xmi%d", inv), Format: "xmi", Invocations: inv, Tasks: inv + 2, Body: xmis[pick]}
		default:
			return submission{Kind: "fan64", Format: "cnx", Tasks: mixFanTasks, Body: fans[pick]}
		}
	}
	eventRate := mixRate / (1 + mixBurstChance*(mixBurstSize-1))
	var out []arrival
	var offset time.Duration
	for _, span := range spans {
		events := int(math.Round(eventRate * span.Seconds()))
		bursts := int(math.Round(mixBurstChance * float64(events)))
		jobs := events + bursts*(mixBurstSize-1)
		times := make([]time.Duration, events)
		for i := range times {
			times[i] = offset + time.Duration(rng.Float64()*float64(span))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		subs := make([]submission, jobs)
		for i := range subs {
			subs[i] = shape(i, jobs)
		}
		rng.Shuffle(jobs, func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
		for i, e := range rng.Perm(events) {
			n := 1
			if i < bursts {
				n = mixBurstSize
			}
			for k := 0; k < n; k++ {
				out = append(out, arrival{Due: times[e], Head: k == 0, Sub: subs[len(subs)-1]})
				subs = subs[:len(subs)-1]
			}
		}
		offset += span
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

// shuffleBase is the seeded buffer every shuffle payload copies; baseCRC is
// the CRC-32 of its untagged prefix, so a reducer can derive a payload's
// expected checksum from the 16 tag bytes alone.
type shuffleBase struct {
	seed    int64
	buf     []byte
	baseCRC uint32
}

func newShuffleBase(seed int64) *shuffleBase {
	b := &shuffleBase{seed: seed, buf: make([]byte, shuffleBlob)}
	rand.New(rand.NewSource(seed)).Read(b.buf)
	b.baseCRC = crc32.ChecksumIEEE(b.buf[:shuffleBlob-shuffleTagBytes])
	return b
}

func (b *shuffleBase) tag(job, mapper, reducer int) [shuffleTagBytes]byte {
	var tag [shuffleTagBytes]byte
	binary.BigEndian.PutUint32(tag[0:], uint32(b.seed))
	binary.BigEndian.PutUint32(tag[4:], uint32(job))
	binary.BigEndian.PutUint32(tag[8:], uint32(mapper))
	binary.BigEndian.PutUint32(tag[12:], uint32(reducer))
	return tag
}

// payload is the base buffer with its last 16 bytes replaced by the
// (seed, job, mapper, reducer) tag, so every blob has a digest the
// cluster's caches have never seen.
func (b *shuffleBase) payload(job, mapper, reducer int) []byte {
	p := make([]byte, shuffleBlob)
	copy(p, b.buf)
	tag := b.tag(job, mapper, reducer)
	copy(p[shuffleBlob-shuffleTagBytes:], tag[:])
	return p
}

// verify checks a received blob's length, tag and CRC-32.
func (b *shuffleBase) verify(got []byte, job, mapper, reducer int) error {
	if len(got) != shuffleBlob {
		return fmt.Errorf("blob m%d->r%d: %d bytes, want %d", mapper, reducer, len(got), shuffleBlob)
	}
	tag := b.tag(job, mapper, reducer)
	if string(got[shuffleBlob-shuffleTagBytes:]) != string(tag[:]) {
		return fmt.Errorf("blob m%d->r%d: wrong tag %x", mapper, reducer, got[shuffleBlob-shuffleTagBytes:])
	}
	if sum := crc32.ChecksumIEEE(got); sum != crc32.Update(b.baseCRC, crc32.IEEETable, tag[:]) {
		return fmt.Errorf("blob m%d->r%d: CRC-32 %08x does not match", mapper, reducer, sum)
	}
	return nil
}

func shuffleKey(mapper, reducer int) string { return fmt.Sprintf("m%d.r%d", mapper, reducer) }

// bagBase returns the first task value of a bag job; the job's values are
// base .. base+bagItems-1, distinct across the jobs of a run.
func bagBase(seed int64, job int) int {
	return int(seed%1000)*1_000_000 + job*bagItems
}
