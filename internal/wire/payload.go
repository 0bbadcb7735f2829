// Per-type binary marshal/unmarshal for every well-defined protocol body.
// Each payload is [Version][type id uvarint][fields...], with fields
// appended in struct declaration order. Map keys are sorted so identical
// values encode identically (stable tests, comparable benches).
//
// Every body the runtime sends has a row in the table below; Marshal panics
// on a type without one. Marshal and Unmarshal are protocol.Body's and
// protocol.Decode's codec, handed over by the table's init (this package
// imports protocol). A user message is not a protocol body: its application
// encodes it, and it rides a UserPayload as bytes.

package wire

import (
	"fmt"
	"reflect"
	"sort"

	"cn/internal/metrics"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/tuplespace"
)

// Payload type ids. Append only: a type id is part of the wire format, and
// a retired id (the blank rows) is never reused.
const (
	tInvalid uint64 = iota
	tJobRequirements
	tJMOffer
	_ // the create-job request, retired when CREATE_TASKS took the job's header
	_ // its job-id reply, retired when the client named its jobs
	_ // CreateTaskReq, retired with CREATE_TASK
	_ // CreateTaskResp, retired with TASK_ACCEPTED
	tTaskSolicitReq
	tTMOffer
	_ // AssignTaskReq, retired with UPLOAD_JAR
	_ // AssignTaskResp, retired with JAR_UPLOADED
	tCreateTasksReq
	tCreateTasksResp
	tAssignTasksReq
	tAssignTasksResp
	_ // the digest-list request, retired with FETCH_BLOB
	_ // the inline-or-announce reply, retired with BLOB_DATA
	tBlobChunkReq
	tBlobChunkResp
	_ // the start request, retired when CREATE_TASKS took the Start flag
	tExecTaskReq
	_ // TaskEvent, retired when TASK_RETRIED became a TASK_EVENTS label
	tHeartbeat
	tHeartbeatAck
	tUserPayload
	tCancelJobReq
	tJobEvent
	tTSOpReq
	tTSCancelReq
	tTSOpResp
	tDataPutReq
	tDataResolveReq
	tDataLocResp
	tStatsPullReq
	tStatsReportResp
	tJMCheckpoint
	tJMAdoptReq
	tJMAdoptResp
	tTaskEvents
)

// The codec table: one row per body type — type id, capacity hint for the
// encode buffer, append, read. To add a body type, append its id above,
// write its append/read pair below, add a row here, and extend the corpus
// in wire_test.go (TestGoldenBytes and the round-trip tests walk it).
func init() {
	register(tJobRequirements, 32, appendJobRequirements, readJobRequirements)
	register(tJMOffer, 64, appendJMOffer, readJMOffer)
	register(tTaskSolicitReq, 256, appendTaskSolicitReq, readTaskSolicitReq)
	register(tTMOffer, 64, appendTMOffer, readTMOffer)
	register(tCreateTasksReq, 512, appendCreateTasksReq, readCreateTasksReq)
	register(tCreateTasksResp, 256, appendCreateTasksResp, readCreateTasksResp)
	register(tAssignTasksReq, 512, appendAssignTasksReq, readAssignTasksReq)
	register(tAssignTasksResp, 128, appendAssignTasksResp, readAssignTasksResp)
	register(tBlobChunkReq, 128, appendBlobChunkReq, readBlobChunkReq)
	register(tBlobChunkResp, 128, appendBlobChunkResp, readBlobChunkResp)
	registerSized(tExecTaskReq, func(v protocol.ExecTaskReq) int { return 48 + 16*len(v.Tasks) }, appendExecTaskReq, readExecTaskReq)
	registerSized(tHeartbeat, func(v protocol.Heartbeat) int { return 64 + 48*len(v.Beats) }, appendHeartbeat, readHeartbeat)
	register(tHeartbeatAck, 64, appendHeartbeatAck, readHeartbeatAck)
	registerSized(tUserPayload, func(v protocol.UserPayload) int { return 64 + len(v.Data) }, appendUserPayload, readUserPayload)
	register(tCancelJobReq, 128, appendCancelJobReq, readCancelJobReq)
	register(tJobEvent, 128, appendJobEvent, readJobEvent)
	register(tTSOpReq, 96, appendTSOpReq, readTSOpReq)
	register(tTSCancelReq, 64, appendTSCancelReq, readTSCancelReq)
	register(tTSOpResp, 96, appendTSOpResp, readTSOpResp)
	registerSized(tDataPutReq, func(v protocol.DataPutReq) int { return 192 + len(v.Data) }, AppendDataPutReq, ReadDataPutReq)
	register(tDataResolveReq, 192, appendDataResolveReq, readDataResolveReq)
	registerSized(tDataLocResp, func(v protocol.DataLocResp) int { return 192 + len(v.Data) }, appendDataLocResp, readDataLocResp)
	register(tStatsPullReq, 64, appendStatsPullReq, readStatsPullReq)
	register(tStatsReportResp, 512, appendStatsReportResp, readStatsReportResp)
	registerSized(tJMCheckpoint, func(v protocol.JMCheckpoint) int { return 64 + len(v.Data) }, appendJMCheckpoint, readJMCheckpoint)
	register(tJMAdoptReq, 128, appendJMAdoptReq, readJMAdoptReq)
	registerSized(tJMAdoptResp, func(v protocol.JMAdoptResp) int { return 32 + 48*len(v.Present) }, appendJMAdoptResp, readJMAdoptResp)
	registerSized(tTaskEvents, func(v protocol.TaskEvents) int { return 64 + 24*len(v.Events) }, appendTaskEvents, readTaskEvents)
	protocol.InstallCodec(Marshal, Unmarshal)
}

// form is what the table resolves one dynamic type to. A body type T
// registers two: T itself (encode only) and *T (encode and decode).
type form struct {
	id      uint64
	marshal func(v any) []byte
	read    func(r *Reader, out any) error // nil for the value form
}

// forms is filled by init and read-only afterwards.
var forms = make(map[reflect.Type]form)

// register adds a body type whose encoding fits a fixed capacity hint.
func register[T any](id uint64, hint int, app func([]byte, T) []byte, read func(*Reader, *T) error) {
	registerSized(id, func(T) int { return hint }, app, read)
}

// registerSized adds a body type whose capacity hint depends on the value
// (bodies carrying a bulk byte slice size the buffer once, up front). The
// append side takes the body by value: handing a func value a pointer to
// the unboxed copy would force that copy onto the heap, while a by-value
// argument stays in the adapter's own small frame.
func registerSized[T any](id uint64, hint func(T) int, app func([]byte, T) []byte, read func(*Reader, *T) error) {
	encode := func(v T) []byte {
		return app(header(make([]byte, 0, hint(v)), id), v)
	}
	val, ptr := reflect.TypeOf((*T)(nil)).Elem(), reflect.TypeOf((*T)(nil))
	if _, dup := forms[val]; dup {
		panic(fmt.Sprintf("wire: body type %v registered twice", val))
	}
	for _, f := range forms {
		if f.id == id {
			panic(fmt.Sprintf("wire: type id %d registered twice (%v)", id, val))
		}
	}
	forms[val] = form{id: id, marshal: func(v any) []byte { return encode(v.(T)) }}
	forms[ptr] = form{id: id,
		marshal: func(v any) []byte { return encode(*v.(*T)) },
		read:    func(r *Reader, out any) error { return read(r, out.(*T)) },
	}
}

// header starts a binary payload for the given type id.
func header(dst []byte, typeID uint64) []byte {
	return AppendUvarint(append(dst, Version), typeID)
}

// capHint bounds the UPFRONT capacity of a decoded collection. Counts are
// already sanity-checked against the bytes remaining, but one wire byte
// can announce an element that decodes into a much larger struct, so a
// hostile count inside a legal frame could otherwise drive a huge make()
// before the first element fails to parse. Decoders allocate at most this
// many elements eagerly and grow by append for genuinely large payloads.
func capHint(n int) int {
	const maxEager = 1024
	if n > maxEager {
		return maxEager
	}
	return n
}

// Marshal encodes a protocol body: a table lookup on v's dynamic type
// (value or pointer form) and one call. It panics on a type without a row.
func Marshal(v any) []byte {
	f, ok := forms[reflect.TypeOf(v)]
	if !ok {
		panic(fmt.Sprintf("wire: %T is not a protocol body", v))
	}
	return f.marshal(v)
}

// Unmarshal decodes a payload Marshal produced into out, a pointer to a
// body type; the payload's type id must agree with it.
func Unmarshal(data []byte, out any) error {
	r, gotID, err := openPayload(data)
	if err != nil {
		return err
	}
	f, ok := forms[reflect.TypeOf(out)]
	if !ok || f.read == nil {
		return fmt.Errorf("wire: no binary decoder for %T", out)
	}
	if gotID != f.id {
		return fmt.Errorf("wire: payload type id %d does not match %T", gotID, out)
	}
	if err := f.read(&r, out); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after %T payload", r.Len(), out)
	}
	return nil
}

// UnmarshalTSOpReq is Unmarshal for a tuple-space request, called directly
// rather than through the table so that neither the reader nor v escapes.
func UnmarshalTSOpReq(data []byte, v *protocol.TSOpReq) error {
	r, gotID, err := openPayload(data)
	if err == nil && gotID != tTSOpReq {
		err = fmt.Errorf("wire: payload type id %d is not a TSOpReq", gotID)
	}
	if err == nil {
		err = readTSOpReq(&r, v)
	}
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("wire: %d trailing bytes after a TSOpReq", r.Len())
	}
	return err
}

// openPayload validates the payload header and returns a reader positioned
// at the first field plus the payload type id.
func openPayload(data []byte) (Reader, uint64, error) {
	if len(data) < 2 {
		return Reader{}, 0, fmt.Errorf("wire: payload too short (%d bytes)", len(data))
	}
	if data[0] != Version {
		return Reader{}, 0, fmt.Errorf("wire: payload version %d not supported (want %d)", data[0], Version)
	}
	r := Reader{b: data[1:]}
	id, err := r.Uvarint()
	return r, id, err
}

// --- shared sub-encodings ---
//
// The exported ones are also the sections of the JobManager's checkpoint
// image (jobmgr/checkpoint.go): state that travels in one representation is
// encoded by one piece of code. Every Read* bounds its counts against the
// bytes left in r; strings are copies, []byte values alias r's input.

func AppendSpec(b []byte, sp *task.Spec) []byte {
	if sp == nil {
		return AppendBool(b, false)
	}
	b = AppendBool(b, true)
	b = AppendString(b, sp.Name)
	b = AppendString(b, sp.Archive)
	b = AppendString(b, sp.Class)
	b = AppendUvarint(b, uint64(len(sp.DependsOn)))
	for _, d := range sp.DependsOn {
		b = AppendString(b, d)
	}
	b = AppendUvarint(b, uint64(len(sp.Params)))
	for _, p := range sp.Params {
		b = AppendString(b, string(p.Type))
		b = AppendString(b, p.Value)
	}
	b = AppendVarint(b, int64(sp.Req.MemoryMB))
	b = AppendVarint(b, int64(sp.Req.RunModel))
	return b
}

func ReadSpec(r *Reader) (*task.Spec, error) {
	present, err := r.Bool()
	if err != nil || !present {
		return nil, err
	}
	sp := &task.Spec{}
	if sp.Name, err = r.String(); err != nil {
		return nil, err
	}
	if sp.Archive, err = r.String(); err != nil {
		return nil, err
	}
	if sp.Class, err = r.String(); err != nil {
		return nil, err
	}
	n, err := r.Count("spec dependencies")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		sp.DependsOn = make([]string, 0, capHint(n))
		for i := 0; i < n; i++ {
			s, err := r.String()
			if err != nil {
				return nil, err
			}
			sp.DependsOn = append(sp.DependsOn, s)
		}
	}
	if n, err = r.Count("spec params"); err != nil {
		return nil, err
	}
	if n > 0 {
		sp.Params = make([]task.Param, 0, capHint(n))
		for i := 0; i < n; i++ {
			typ, err := r.String()
			if err != nil {
				return nil, err
			}
			val, err := r.String()
			if err != nil {
				return nil, err
			}
			sp.Params = append(sp.Params, task.Param{Type: task.ParamType(typ), Value: val})
		}
	}
	if sp.Req.MemoryMB, err = r.Int(); err != nil {
		return nil, err
	}
	rm, err := r.Varint()
	if err != nil {
		return nil, err
	}
	sp.Req.RunModel = task.RunModel(rm)
	return sp, nil
}

// AppendArchiveRef encodes Size only beside a digest: a ref without one
// names no bytes, and a task that ships no archive costs two empty strings.
func AppendArchiveRef(b []byte, ref protocol.ArchiveRef) []byte {
	b = AppendString(b, ref.Name)
	b = AppendString(b, ref.Digest)
	if ref.Digest != "" {
		b = AppendVarint(b, ref.Size)
	}
	return b
}

func ReadArchiveRef(r *Reader) (ref protocol.ArchiveRef, err error) {
	if ref.Name, err = r.String(); err != nil {
		return ref, err
	}
	if ref.Digest, err = r.String(); err != nil || ref.Digest == "" {
		return ref, err
	}
	ref.Size, err = r.Varint()
	return ref, err
}

func appendTaskCreate(b []byte, tc *protocol.TaskCreate) []byte {
	return AppendArchiveRef(AppendSpec(b, tc.Spec), tc.Archive)
}

func readTaskCreate(r *Reader) (tc protocol.TaskCreate, err error) {
	if tc.Spec, err = ReadSpec(r); err != nil {
		return tc, err
	}
	tc.Archive, err = ReadArchiveRef(r)
	return tc, err
}

func AppendStringSlice(b []byte, ss []string) []byte {
	b = AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

func ReadStringSlice(r *Reader, what string) ([]string, error) {
	n, err := r.Count(what)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]string, 0, capHint(n))
	for i := 0; i < n; i++ {
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// AppendInt64Slice appends a count and then each value as a varint.
func AppendInt64Slice(b []byte, vs []int64) []byte {
	b = AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendVarint(b, v)
	}
	return b
}

// ReadInt64Slice reads what AppendInt64Slice wrote (an empty list as nil);
// the count is bounded by the bytes left, so it bounds the slice made too.
func ReadInt64Slice(r *Reader, what string) ([]int64, error) {
	n, err := r.Count(what)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		if out[i], err = r.Varint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func AppendStringMap(b []byte, m map[string]string) []byte {
	b = AppendUvarint(b, uint64(len(m)))
	for _, k := range SortedKeys(m) {
		b = AppendString(b, k)
		b = AppendString(b, m[k])
	}
	return b
}

func ReadStringMap(r *Reader, what string) (map[string]string, error) {
	n, err := r.Count(what)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make(map[string]string, capHint(n))
	for i := 0; i < n; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		v, err := r.String()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func AppendBlobMap(b []byte, m map[string][]byte) []byte {
	b = AppendUvarint(b, uint64(len(m)))
	for _, k := range SortedKeys(m) {
		b = AppendString(b, k)
		b = AppendBytes(b, m[k])
	}
	return b
}

func ReadBlobMap(r *Reader, what string) (map[string][]byte, error) {
	n, err := r.Count(what)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make(map[string][]byte, capHint(n))
	for i := 0; i < n; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		v, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// AppendTuple appends a tuple or a template: a field count, then per field
// its kind tag and one slot per value kind (string, integer, float, bool,
// bytes), the checkpoint's space section since its version 4. A field of no
// wire kind gets an empty tag, which ReadTuple refuses; callers check first.
func AppendTuple[T ~[]any](b []byte, fields T) []byte {
	b = AppendUvarint(b, uint64(len(fields)))
	for _, v := range fields {
		switch x := v.(type) {
		case string:
			b = appendField(b, protocol.TSString, x, 0, 0, false, nil)
		case int:
			b = appendField(b, protocol.TSInt, "", int64(x), 0, false, nil)
		case int64:
			b = appendField(b, protocol.TSInt64, "", x, 0, false, nil)
		case float64:
			b = appendField(b, protocol.TSFloat, "", 0, x, false, nil)
		case bool:
			b = appendField(b, protocol.TSBool, "", 0, 0, x, nil)
		case []byte:
			b = appendField(b, protocol.TSBytes, "", 0, 0, false, x)
		default:
			kind, name := "", ""
			if tuplespace.IsWildcard(v) {
				kind = protocol.TSWildcard
			} else if name, _ = tuplespace.TypeName(v); name != "" {
				kind = protocol.TSTypeOf
			}
			b = appendField(b, kind, name, 0, 0, false, nil)
		}
	}
	return b
}

func appendField(b []byte, kind, s string, i int64, f float64, on bool, x []byte) []byte {
	b = AppendString(b, kind)
	b = AppendString(b, s)
	b = AppendVarint(b, i)
	b = AppendFloat64(b, f)
	b = AppendBool(b, on)
	return AppendBytes(b, x)
}

// ReadTuple reads what AppendTuple wrote, placeholders included (a caller
// wanting a tuple checks it); a []byte field aliases the input.
func ReadTuple(r *Reader) (tuplespace.Tuple, error) {
	n, err := r.Count("tuple fields")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make(tuplespace.Tuple, n)
	for i := range out {
		if out[i], err = readField(r); err != nil {
			return nil, fmt.Errorf("wire: tuple field %d: %w", i, err)
		}
	}
	return out, nil
}

func readField(r *Reader) (any, error) {
	var s, x []byte
	var i int64
	var f float64
	var on bool
	kind, err := r.Bytes()
	if err == nil {
		s, err = r.Bytes()
	}
	if err == nil {
		i, err = r.Varint()
	}
	if err == nil {
		f, err = r.Float64()
	}
	if err == nil {
		on, err = r.Bool()
	}
	if err == nil {
		x, err = r.Bytes()
	}
	if err != nil {
		return nil, err
	}
	switch string(kind) {
	case protocol.TSString:
		return string(s), nil
	case protocol.TSInt:
		return int(i), nil
	case protocol.TSInt64:
		return i, nil
	case protocol.TSFloat:
		return f, nil
	case protocol.TSBool:
		return on, nil
	case protocol.TSBytes:
		return x, nil
	case protocol.TSWildcard:
		return tuplespace.Wildcard, nil
	case protocol.TSTypeOf:
		if p, ok := tuplespace.TypeFromName(string(s)); ok {
			return p, nil
		}
		return nil, fmt.Errorf("unknown type %q", s)
	}
	return nil, fmt.Errorf("unknown field kind %q", kind)
}

// --- per-body encoders/decoders, fields in declaration order ---

func appendJobRequirements(b []byte, v protocol.JobRequirements) []byte {
	b = AppendVarint(b, int64(v.MinMemoryMB))
	return AppendVarint(b, int64(v.ExpectedTasks))
}

func readJobRequirements(r *Reader, v *protocol.JobRequirements) (err error) {
	if v.MinMemoryMB, err = r.Int(); err != nil {
		return err
	}
	v.ExpectedTasks, err = r.Int()
	return err
}

func appendJMOffer(b []byte, v protocol.JMOffer) []byte {
	b = AppendString(b, v.Node)
	b = AppendVarint(b, int64(v.FreeMemoryMB))
	b = AppendVarint(b, int64(v.ActiveJobs))
	return AppendString(b, v.Refused)
}

func readJMOffer(r *Reader, v *protocol.JMOffer) (err error) {
	if v.Node, err = r.String(); err != nil {
		return err
	}
	if v.FreeMemoryMB, err = r.Int(); err != nil {
		return err
	}
	if v.ActiveJobs, err = r.Int(); err != nil {
		return err
	}
	v.Refused, err = r.String()
	return err
}

func appendTaskSolicitReq(b []byte, v protocol.TaskSolicitReq) []byte {
	b = AppendString(b, v.JobID)
	return AppendSpec(b, v.Spec)
}

func readTaskSolicitReq(r *Reader, v *protocol.TaskSolicitReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	v.Spec, err = ReadSpec(r)
	return err
}

// appendCapacity is the one layout of a node's figure, in the three bodies
// that carry it: the sequence, then free memory and running tasks.
func appendCapacity(b []byte, v protocol.Capacity) []byte {
	b = AppendUvarint(b, v.Seq)
	b = AppendVarint(b, int64(v.FreeMemoryMB))
	return AppendVarint(b, int64(v.RunningTasks))
}

func readCapacity(r *Reader, v *protocol.Capacity) (err error) {
	if v.Seq, err = r.Uvarint(); err != nil {
		return err
	}
	if v.FreeMemoryMB, err = r.Int(); err != nil {
		return err
	}
	v.RunningTasks, err = r.Int()
	return err
}

func appendTMOffer(b []byte, v protocol.TMOffer) []byte {
	b = AppendString(b, v.Node)
	b = appendCapacity(b, protocol.Capacity{Seq: v.Seq, FreeMemoryMB: v.FreeMemoryMB, RunningTasks: v.RunningTasks})
	b = AppendStringSlice(b, v.ResidentDigests)
	return AppendVarint(b, int64(v.StalledTasks))
}

func readTMOffer(r *Reader, v *protocol.TMOffer) (err error) {
	if v.Node, err = r.String(); err != nil {
		return err
	}
	var c protocol.Capacity
	if err = readCapacity(r, &c); err != nil {
		return err
	}
	v.Seq, v.FreeMemoryMB, v.RunningTasks = c.Seq, c.FreeMemoryMB, c.RunningTasks
	if v.ResidentDigests, err = ReadStringSlice(r, "resident digests"); err != nil {
		return err
	}
	v.StalledTasks, err = r.Int()
	return err
}

func appendCreateTasksReq(b []byte, v protocol.CreateTasksReq) []byte {
	b = AppendString(b, v.JobID)
	b = AppendUvarint(b, uint64(len(v.Tasks)))
	for i := range v.Tasks {
		b = appendTaskCreate(b, &v.Tasks[i])
	}
	b = AppendBlobMap(b, v.Blobs)
	b = AppendString(b, v.ClientNode)
	b = AppendString(b, v.Name)
	b = appendJobRequirements(b, v.Req)
	b = AppendBool(b, v.Start)
	return AppendSpans(b, v.Spans)
}

func readCreateTasksReq(r *Reader, v *protocol.CreateTasksReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	n, err := r.Count("tasks")
	if err != nil {
		return err
	}
	if n > 0 {
		v.Tasks = make([]protocol.TaskCreate, 0, capHint(n))
		for i := 0; i < n; i++ {
			tc, err := readTaskCreate(r)
			if err != nil {
				return err
			}
			v.Tasks = append(v.Tasks, tc)
		}
	}
	if v.Blobs, err = ReadBlobMap(r, "blobs"); err != nil {
		return err
	}
	if v.ClientNode, err = r.String(); err != nil {
		return err
	}
	if v.Name, err = r.String(); err != nil {
		return err
	}
	if err = readJobRequirements(r, &v.Req); err != nil {
		return err
	}
	if v.Start, err = r.Bool(); err != nil {
		return err
	}
	v.Spans, err = ReadSpans(r)
	return err
}

func appendCreateTasksResp(b []byte, v protocol.CreateTasksResp) []byte {
	return AppendStringMap(b, v.Placements)
}

func readCreateTasksResp(r *Reader, v *protocol.CreateTasksResp) (err error) {
	v.Placements, err = ReadStringMap(r, "placements")
	return err
}

func appendAssignTasksReq(b []byte, v protocol.AssignTasksReq) []byte {
	b = AppendString(b, v.JobID)
	b = AppendString(b, v.JobManager)
	b = AppendString(b, v.ClientNode)
	b = AppendUvarint(b, uint64(len(v.Items)))
	for i := range v.Items {
		b = appendTaskCreate(b, &v.Items[i])
	}
	return AppendStringSlice(b, v.Run)
}

func readAssignTasksReq(r *Reader, v *protocol.AssignTasksReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.JobManager, err = r.String(); err != nil {
		return err
	}
	if v.ClientNode, err = r.String(); err != nil {
		return err
	}
	n, err := r.Count("assignment items")
	if err != nil {
		return err
	}
	if n > 0 {
		v.Items = make([]protocol.TaskCreate, 0, capHint(n))
		for i := 0; i < n; i++ {
			tc, err := readTaskCreate(r)
			if err != nil {
				return err
			}
			v.Items = append(v.Items, tc)
		}
	}
	v.Run, err = ReadStringSlice(r, "run list")
	return err
}

func appendAssignTasksResp(b []byte, v protocol.AssignTasksResp) []byte {
	b = AppendStringMap(b, v.Rejected)
	b = AppendVarint(b, int64(v.Fetched))
	return appendCapacity(b, v.Capacity)
}

func readAssignTasksResp(r *Reader, v *protocol.AssignTasksResp) (err error) {
	if v.Rejected, err = ReadStringMap(r, "rejections"); err != nil {
		return err
	}
	if v.Fetched, err = r.Int(); err != nil {
		return err
	}
	return readCapacity(r, &v.Capacity)
}

// The two chunk bodies encode every field but Data: the chunk's bytes ride
// the frame's tail, where protocol.Body puts them and protocol.Decode finds
// them, and are never copied into a payload.

func appendBlobChunkReq(b []byte, v protocol.BlobChunkReq) []byte {
	b = AppendString(b, v.JobID)
	b = AppendString(b, v.Digest)
	b = AppendVarint(b, v.Offset)
	b = AppendVarint(b, v.MaxBytes)
	return AppendVarint(b, v.Total)
}

func readBlobChunkReq(r *Reader, v *protocol.BlobChunkReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.Digest, err = r.String(); err != nil {
		return err
	}
	if v.Offset, err = r.Varint(); err != nil {
		return err
	}
	if v.MaxBytes, err = r.Varint(); err != nil {
		return err
	}
	v.Total, err = r.Varint()
	return err
}

func appendBlobChunkResp(b []byte, v protocol.BlobChunkResp) []byte {
	b = AppendString(b, v.Digest)
	b = AppendVarint(b, v.Offset)
	b = AppendVarint(b, v.Total)
	return AppendString(b, v.Err)
}

func readBlobChunkResp(r *Reader, v *protocol.BlobChunkResp) (err error) {
	if v.Digest, err = r.String(); err != nil {
		return err
	}
	if v.Offset, err = r.Varint(); err != nil {
		return err
	}
	if v.Total, err = r.Varint(); err != nil {
		return err
	}
	v.Err, err = r.String()
	return err
}

func appendExecTaskReq(b []byte, v protocol.ExecTaskReq) []byte {
	b = AppendString(b, v.JobID)
	return AppendStringSlice(b, v.Tasks)
}

func readExecTaskReq(r *Reader, v *protocol.ExecTaskReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	v.Tasks, err = ReadStringSlice(r, "exec tasks")
	return err
}

func appendHeartbeat(b []byte, v protocol.Heartbeat) []byte {
	b = AppendString(b, v.Node)
	b = AppendUvarint(b, v.Seq)
	return appendTaskBeats(b, v.Beats)
}

func appendTaskBeats(b []byte, beats []protocol.TaskBeat) []byte {
	b = AppendUvarint(b, uint64(len(beats)))
	for _, beat := range beats {
		b = AppendString(b, beat.JobID)
		b = AppendString(b, beat.Task)
		b = AppendBool(b, beat.Running)
		b = AppendUvarint(b, beat.Progress)
	}
	return b
}

func readTaskBeats(r *Reader) ([]protocol.TaskBeat, error) {
	n, err := r.Count("beats")
	if err != nil || n == 0 {
		return nil, err
	}
	beats := make([]protocol.TaskBeat, 0, capHint(n))
	for i := 0; i < n; i++ {
		var beat protocol.TaskBeat
		if beat.JobID, err = r.String(); err != nil {
			return nil, err
		}
		if beat.Task, err = r.String(); err != nil {
			return nil, err
		}
		if beat.Running, err = r.Bool(); err != nil {
			return nil, err
		}
		if beat.Progress, err = r.Uvarint(); err != nil {
			return nil, err
		}
		beats = append(beats, beat)
	}
	return beats, nil
}

func readHeartbeat(r *Reader, v *protocol.Heartbeat) (err error) {
	if v.Node, err = r.String(); err != nil {
		return err
	}
	if v.Seq, err = r.Uvarint(); err != nil {
		return err
	}
	v.Beats, err = readTaskBeats(r)
	return err
}

func appendHeartbeatAck(b []byte, v protocol.HeartbeatAck) []byte {
	b = AppendString(b, v.Node)
	b = AppendUvarint(b, v.Seq)
	return AppendStringSlice(b, v.UnknownJobs)
}

func readHeartbeatAck(r *Reader, v *protocol.HeartbeatAck) (err error) {
	if v.Node, err = r.String(); err != nil {
		return err
	}
	if v.Seq, err = r.Uvarint(); err != nil {
		return err
	}
	v.UnknownJobs, err = ReadStringSlice(r, "unknown jobs")
	return err
}

func appendUserPayload(b []byte, v protocol.UserPayload) []byte {
	b = AppendString(b, v.JobID)
	b = AppendString(b, v.FromTask)
	b = AppendString(b, v.ToTask)
	return AppendBytes(b, v.Data)
}

func readUserPayload(r *Reader, v *protocol.UserPayload) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.FromTask, err = r.String(); err != nil {
		return err
	}
	if v.ToTask, err = r.String(); err != nil {
		return err
	}
	v.Data, err = r.Bytes()
	return err
}

func appendCancelJobReq(b []byte, v protocol.CancelJobReq) []byte {
	b = AppendString(b, v.JobID)
	b = AppendString(b, v.Reason)
	return AppendStringSlice(b, v.Tasks)
}

func readCancelJobReq(r *Reader, v *protocol.CancelJobReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.Reason, err = r.String(); err != nil {
		return err
	}
	v.Tasks, err = ReadStringSlice(r, "tasks")
	return err
}

func appendJobEvent(b []byte, v protocol.JobEvent) []byte {
	b = AppendString(b, v.JobID)
	b = AppendBool(b, v.Failed)
	b = AppendString(b, v.Err)
	return AppendStringMap(b, v.TaskErrs)
}

func readJobEvent(r *Reader, v *protocol.JobEvent) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.Failed, err = r.Bool(); err != nil {
		return err
	}
	if v.Err, err = r.String(); err != nil {
		return err
	}
	v.TaskErrs, err = ReadStringMap(r, "task errors")
	return err
}

func appendTSOpReq(b []byte, v protocol.TSOpReq) []byte {
	if v.Tuple == nil && v.Fields != nil {
		b = AppendUvarint(b, uint64(len(v.Fields)))
		for _, f := range v.Fields {
			b = appendField(b, f.Kind, f.S, f.I, f.F, f.B, f.Bytes)
		}
	} else {
		b = AppendTuple(b, v.Tuple)
	}
	b = AppendVarint(b, v.ParkMS)
	return AppendBool(b, v.NoReply)
}

func readTSOpReq(r *Reader, v *protocol.TSOpReq) (err error) {
	if v.Tuple, err = ReadTuple(r); err != nil {
		return err
	}
	if v.ParkMS, err = r.Varint(); err != nil {
		return err
	}
	v.NoReply, err = r.Bool()
	return err
}

func appendTSCancelReq(b []byte, v protocol.TSCancelReq) []byte {
	b = AppendString(b, v.JobID)
	return AppendUvarint(b, v.ReqID)
}

func readTSCancelReq(r *Reader, v *protocol.TSCancelReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	v.ReqID, err = r.Uvarint()
	return err
}

func appendTSOpResp(b []byte, v protocol.TSOpResp) []byte {
	b = AppendBool(b, v.OK)
	b = AppendBool(b, v.Closed)
	b = AppendBool(b, v.NoMatch)
	b = AppendBool(b, v.Retry)
	b = AppendString(b, v.Err)
	return AppendTuple(b, v.Tuple)
}

func readTSOpResp(r *Reader, v *protocol.TSOpResp) (err error) {
	if v.OK, err = r.Bool(); err != nil {
		return err
	}
	if v.Closed, err = r.Bool(); err != nil {
		return err
	}
	if v.NoMatch, err = r.Bool(); err != nil {
		return err
	}
	if v.Retry, err = r.Bool(); err != nil {
		return err
	}
	if v.Err, err = r.String(); err != nil {
		return err
	}
	v.Tuple, err = ReadTuple(r)
	return err
}

// AppendDataPutReq is exported with its reader for the checkpoint image: a
// data-plane location rides it as the advert that made it.
func AppendDataPutReq(b []byte, v protocol.DataPutReq) []byte {
	b = AppendString(b, v.JobID)
	b = AppendString(b, v.Key)
	b = AppendString(b, v.Task)
	b = AppendString(b, v.Node)
	b = AppendString(b, v.Digest)
	b = AppendVarint(b, v.Size)
	return AppendBytes(b, v.Data)
}

func ReadDataPutReq(r *Reader, v *protocol.DataPutReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.Key, err = r.String(); err != nil {
		return err
	}
	if v.Task, err = r.String(); err != nil {
		return err
	}
	if v.Node, err = r.String(); err != nil {
		return err
	}
	if v.Digest, err = r.String(); err != nil {
		return err
	}
	if v.Size, err = r.Varint(); err != nil {
		return err
	}
	v.Data, err = r.Bytes()
	return err
}

func appendDataResolveReq(b []byte, v protocol.DataResolveReq) []byte {
	b = AppendString(b, v.JobID)
	b = AppendString(b, v.Key)
	b = AppendString(b, v.Task)
	b = AppendVarint(b, v.ParkMS)
	b = AppendString(b, v.StaleNode)
	return AppendString(b, v.StaleDigest)
}

func readDataResolveReq(r *Reader, v *protocol.DataResolveReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.Key, err = r.String(); err != nil {
		return err
	}
	if v.Task, err = r.String(); err != nil {
		return err
	}
	if v.ParkMS, err = r.Varint(); err != nil {
		return err
	}
	if v.StaleNode, err = r.String(); err != nil {
		return err
	}
	v.StaleDigest, err = r.String()
	return err
}

func appendDataLocResp(b []byte, v protocol.DataLocResp) []byte {
	b = AppendString(b, v.Key)
	b = AppendString(b, v.Digest)
	b = AppendString(b, v.Node)
	b = AppendVarint(b, v.Size)
	b = AppendBytes(b, v.Data)
	b = AppendBool(b, v.Retry)
	b = AppendBool(b, v.Closed)
	return AppendString(b, v.Err)
}

func readDataLocResp(r *Reader, v *protocol.DataLocResp) (err error) {
	if v.Key, err = r.String(); err != nil {
		return err
	}
	if v.Digest, err = r.String(); err != nil {
		return err
	}
	if v.Node, err = r.String(); err != nil {
		return err
	}
	if v.Size, err = r.Varint(); err != nil {
		return err
	}
	if v.Data, err = r.Bytes(); err != nil {
		return err
	}
	if v.Retry, err = r.Bool(); err != nil {
		return err
	}
	if v.Closed, err = r.Bool(); err != nil {
		return err
	}
	v.Err, err = r.String()
	return err
}

func appendStatsPullReq(b []byte, v protocol.StatsPullReq) []byte {
	return AppendString(b, v.Scraper)
}

func readStatsPullReq(r *Reader, v *protocol.StatsPullReq) (err error) {
	v.Scraper, err = r.String()
	return err
}

func AppendInt64Map(b []byte, m map[string]int64) []byte {
	b = AppendUvarint(b, uint64(len(m)))
	for _, k := range SortedKeys(m) {
		b = AppendString(b, k)
		b = AppendVarint(b, m[k])
	}
	return b
}

func ReadInt64Map(r *Reader, what string) (map[string]int64, error) {
	n, err := r.Count(what)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make(map[string]int64, capHint(n))
	for i := 0; i < n; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		v, err := r.Varint()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func appendStatsReportResp(b []byte, v protocol.StatsReportResp) []byte {
	b = AppendString(b, v.Node)
	b = AppendInt64Map(b, v.Metrics.Counters)
	b = AppendInt64Map(b, v.Metrics.Gauges)
	b = AppendUvarint(b, uint64(len(v.Metrics.Histograms)))
	for _, k := range SortedKeys(v.Metrics.Histograms) {
		s := v.Metrics.Histograms[k]
		b = AppendString(b, k)
		b = AppendVarint(b, s.Count)
		b = AppendFloat64(b, s.Mean)
		b = AppendFloat64(b, s.Min)
		b = AppendFloat64(b, s.Max)
		b = AppendFloat64(b, s.P50)
		b = AppendFloat64(b, s.P90)
		b = AppendFloat64(b, s.P99)
	}
	return b
}

func readStatsReportResp(r *Reader, v *protocol.StatsReportResp) (err error) {
	if v.Node, err = r.String(); err != nil {
		return err
	}
	if v.Metrics.Counters, err = ReadInt64Map(r, "stats counters"); err != nil {
		return err
	}
	if v.Metrics.Gauges, err = ReadInt64Map(r, "stats gauges"); err != nil {
		return err
	}
	n, err := r.Count("stats histograms")
	if err != nil {
		return err
	}
	if n > 0 {
		v.Metrics.Histograms = make(map[string]metrics.Summary, capHint(n))
		for i := 0; i < n; i++ {
			k, err := r.String()
			if err != nil {
				return err
			}
			var s metrics.Summary
			if s.Count, err = r.Varint(); err != nil {
				return err
			}
			if s.Mean, err = r.Float64(); err != nil {
				return err
			}
			if s.Min, err = r.Float64(); err != nil {
				return err
			}
			if s.Max, err = r.Float64(); err != nil {
				return err
			}
			if s.P50, err = r.Float64(); err != nil {
				return err
			}
			if s.P90, err = r.Float64(); err != nil {
				return err
			}
			if s.P99, err = r.Float64(); err != nil {
				return err
			}
			v.Metrics.Histograms[k] = s
		}
	}
	return nil
}

func appendJMCheckpoint(b []byte, v protocol.JMCheckpoint) []byte {
	b = AppendString(b, v.Origin)
	b = AppendString(b, v.JobID)
	b = AppendUvarint(b, v.Seq)
	b = AppendBool(b, v.Done)
	return AppendBytes(b, v.Data)
}

func readJMCheckpoint(r *Reader, v *protocol.JMCheckpoint) (err error) {
	if v.Origin, err = r.String(); err != nil {
		return err
	}
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.Seq, err = r.Uvarint(); err != nil {
		return err
	}
	if v.Done, err = r.Bool(); err != nil {
		return err
	}
	v.Data, err = r.Bytes()
	return err
}

func appendJMAdoptReq(b []byte, v protocol.JMAdoptReq) []byte {
	b = AppendString(b, v.JobID)
	b = AppendString(b, v.NewManager)
	b = AppendString(b, v.ClientNode)
	return AppendStringSlice(b, v.Tasks)
}

func readJMAdoptReq(r *Reader, v *protocol.JMAdoptReq) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.NewManager, err = r.String(); err != nil {
		return err
	}
	if v.ClientNode, err = r.String(); err != nil {
		return err
	}
	v.Tasks, err = ReadStringSlice(r, "adopted tasks")
	return err
}

func appendJMAdoptResp(b []byte, v protocol.JMAdoptResp) []byte {
	b = AppendString(b, v.Node)
	return appendTaskBeats(b, v.Present)
}

func readJMAdoptResp(r *Reader, v *protocol.JMAdoptResp) (err error) {
	if v.Node, err = r.String(); err != nil {
		return err
	}
	v.Present, err = readTaskBeats(r)
	return err
}

func appendTaskEvents(b []byte, v protocol.TaskEvents) []byte {
	b = AppendString(b, v.JobID)
	b = AppendString(b, v.Node)
	b = appendCapacity(b, v.Capacity)
	b = AppendUvarint(b, uint64(len(v.Events)))
	for i := range v.Events {
		e := &v.Events[i]
		b = AppendUvarint(b, uint64(e.Kind))
		b = AppendString(b, e.Task)
		b = AppendString(b, e.Err)
		b = AppendVarint(b, int64(e.Attempt))
		b = AppendSpans(b, e.Spans)
		switch {
		case e.Kind == msg.KindTaskRetried:
			b = AppendBool(b, e.Speculative)
		case protocol.IsJobLabel(e.Kind):
			b = AppendStringMap(b, e.TaskErrs)
		}
	}
	return b
}

// readTaskEvents refuses what no sender produces: more events than one
// frame may carry, or an event labelled with anything but the three task
// labels, the retry label and the two job labels. A label's own fields
// follow the ones every event has: Speculative on a retry, TaskErrs on a
// job's end.
func readTaskEvents(r *Reader, v *protocol.TaskEvents) (err error) {
	if v.JobID, err = r.String(); err != nil {
		return err
	}
	if v.Node, err = r.String(); err != nil {
		return err
	}
	if err = readCapacity(r, &v.Capacity); err != nil {
		return err
	}
	n, err := r.Count("task events")
	if err != nil || n == 0 {
		return err
	}
	if n > protocol.TaskEventsMax {
		return fmt.Errorf("wire: %d task events in one frame (max %d)", n, protocol.TaskEventsMax)
	}
	v.Events = make([]protocol.TaskEventItem, n)
	for i := range v.Events {
		e := &v.Events[i]
		var kind uint64
		if kind, err = r.Uvarint(); err != nil {
			return err
		}
		e.Kind = msg.Kind(kind)
		if !protocol.IsTaskLabel(e.Kind) && !protocol.IsJobLabel(e.Kind) && e.Kind != msg.KindTaskRetried {
			return fmt.Errorf("wire: task event labelled with kind %d", kind)
		}
		if e.Task, err = r.String(); err != nil {
			return err
		}
		if e.Err, err = r.String(); err != nil {
			return err
		}
		if e.Attempt, err = r.Int(); err != nil {
			return err
		}
		if e.Spans, err = ReadSpans(r); err != nil {
			return err
		}
		switch {
		case e.Kind == msg.KindTaskRetried:
			e.Speculative, err = r.Bool()
		case protocol.IsJobLabel(e.Kind):
			e.TaskErrs, err = ReadStringMap(r, "task errors")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// SortedKeys returns m's keys in sorted order, for deterministic map
// encodings.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
