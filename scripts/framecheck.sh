#!/bin/bash
# Frame-size guard for the message path. A function whose frame outgrows a
# fresh goroutine's 2 KiB stack makes every first call on that goroutine pay
# a stack copy (runtime.newstack); on the per-message path that was 16 % of a
# tuple-space workload before the codec became a table. Fails if any function
# in internal/wire (the codec, the envelope and the frame — among them the
# head-only encode wire.AppendFrameHead and the reader's head/tail split,
# wire.(*FrameReader).Next / readEnvelope / readTailed) or internal/msg, the
# transport functions every frame passes through (Send, the read loop and
# the write loop every connection has — readLoop and writeLoop, dialed or
# accepted alike — the posted-receive claim, and for a node's frames to itself
# sendSelf, the self-delivery loop selfLoop and its tail copy ownTail),
# Server.handle / dispatch / replyIfAny, the JobManager's HandleTSOp (which
# decodes a tuple-space request into its own frame) and the Caller's
# deadline sweep expire, or the lifecycle path of the run phase — the JobManager's execTasks /
# sendExec and its batch apply (HandleTaskEvents, applyEvents, applyLocked,
# relayEvents), the TaskManager's HandleExec / post / flush (the flusher is
# a goroutine per burst of events: it must start on a fresh stack without
# growing it) and the client's handle / recordEvents, or the data plane's
# per-blob path — the task context's put / get, the TaskManager's
# HandleDataFetch (a goroutine per chunk request) and the chunk protocol's
# two verbs, protocol.PullBlob and protocol.PushBlob (both over chunkCall),
# with the assembler (*Upload).Push a JobManager runs on a goroutine per
# pushed chunk — declares a frame above the limit. The TaskEvents and
# ExecTaskReq codec pairs fall under internal/wire.
#   bash scripts/framecheck.sh [limit-bytes]
set -eu
cd "$(dirname "$0")/.."
limit="${1:-1024}"
bad=0
while read -r line; do
	sym="${line%% STEXT*}"
	case "$sym" in
	cn/internal/wire.* | cn/internal/msg.*) ;;
	'cn/internal/server.(*Server).handle' | 'cn/internal/server.(*Server).dispatch' | 'cn/internal/server.(*Server).replyIfAny') ;;
	'cn/internal/transport.(*tcpEndpoint).Send' | 'cn/internal/transport.(*tcpEndpoint).readLoop' | 'cn/internal/transport.(*tcpEndpoint).writeLoop') ;;
	'cn/internal/transport.(*tcpEndpoint).claimTail' | 'cn/internal/transport.(*Caller).claim' | 'cn/internal/transport.(*Caller).CallInto') ;;
	'cn/internal/transport.(*tcpEndpoint).sendSelf' | 'cn/internal/transport.(*tcpEndpoint).selfLoop' | 'cn/internal/transport.(*tcpEndpoint).ownTail') ;;
	'cn/internal/jobmgr.(*JobManager).execTasks' | 'cn/internal/jobmgr.(*JobManager).sendExec' | 'cn/internal/jobmgr.(*JobManager).HandleTaskEvents') ;;
	'cn/internal/jobmgr.(*JobManager).HandleTSOp' | 'cn/internal/transport.(*Caller).expire') ;;
	'cn/internal/jobmgr.(*JobManager).applyEvents' | 'cn/internal/jobmgr.(*JobManager).applyLocked' | 'cn/internal/jobmgr.(*JobManager).relayEvents') ;;
	'cn/internal/taskmgr.(*TaskManager).HandleExec' | 'cn/internal/taskmgr.(*TaskManager).post' | 'cn/internal/taskmgr.(*TaskManager).flush') ;;
	'cn/internal/api.(*Client).handle' | 'cn/internal/api.(*Job).recordEvents') ;;
	'cn/internal/taskmgr.(*execContext).put' | 'cn/internal/taskmgr.(*execContext).get') ;;
	'cn/internal/taskmgr.(*TaskManager).HandleDataFetch' | 'cn/internal/protocol.PullBlob') ;;
	'cn/internal/protocol.PushBlob' | 'cn/internal/protocol.chunkCall' | 'cn/internal/protocol.(*Upload).Push') ;;
	*) continue ;;
	esac
	[[ "$line" =~ locals=(0x[0-9a-f]+) ]] || continue
	frame=$((BASH_REMATCH[1]))
	if [ "$frame" -gt "$limit" ]; then
		echo "frame of $frame bytes (limit $limit): $sym" >&2
		bad=1
	fi
done < <(go build -gcflags=-S ./internal/wire ./internal/msg ./internal/server ./internal/transport \
	./internal/jobmgr ./internal/taskmgr ./internal/api ./internal/protocol 2>&1 | grep ' STEXT ')
if [ "$bad" -ne 0 ]; then
	echo "framecheck: a function on the encode/decode/dispatch path needs more than $limit bytes of stack;" >&2
	echo "keep large bodies behind a pointer or a by-value call into a function of their own (docs/WIRE.md)." >&2
	exit 1
fi
echo "framecheck: ok (limit $limit bytes)"
