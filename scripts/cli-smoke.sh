#!/usr/bin/env bash
# cli-smoke.sh drives the commands end to end over one store directory:
# gen writes query graphs, dspm writes the store, gsearch (mapped and
# verified engines) and gq read it, a copy of it with one byte flipped
# in a shard file's body is refused by gsearch with a body checksum
# error while the original still answers, a copy of the v5 store the
# previous release wrote (graphdim/testdata/v5store) is refused by
# gsearch naming v5 and left byte-identical, gserve serves it, takes three
# adds and is killed with SIGKILL. The killed directory has no owner, so
# gsearch opens it, replays the log and answers over all 43 graphs; gserve
# then comes back with the adds replayed too, and while it runs gsearch is
# refused naming the directory's lock (one owner per data directory) and
# the server keeps answering. gserve shuts down cleanly on SIGTERM. The
# two library examples run
# too: examples/quickstart must grow its collection to ids [60 61 62]
# and find the first added graph at distance 0, and examples/store must
# compact without moving its top-1 and reload. Any failed step fails the
# script. Run it as `make cli`.
set -euo pipefail

d=$(mktemp -d)
pid=
cleanup() {
	if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
	rm -rf "$d"
}
trap cleanup EXIT

for cmd in dspm gsearch gq gserve gen; do
	go build -o "$d/bin/$cmd" "./cmd/$cmd"
done
for ex in quickstart store; do
	go build -o "$d/bin/example-$ex" "./examples/$ex"
done
bin=$d/bin
store=$d/store

"$bin/example-quickstart" | tee "$d/quickstart.txt"
grep -q '^added 3 graphs as ids \[60 61 62\];' "$d/quickstart.txt"
grep -qx 'self query after add: g60 at distance 0.000' "$d/quickstart.txt"
"$bin/example-store" | tee "$d/store-example.txt"
grep -Eq 'still resolves: false; top-1 g([0-9]+) -> g\1$' "$d/store-example.txt"
grep -Eq '^reloaded from .*: self query hits g[0-9]+ at distance 0\.000$' "$d/store-example.txt"

"$bin/dspm" -gen 40 -shards 2 -out "$store" -progress=false
"$bin/gen" -kind chem -n 3 -seed 99 > "$d/q.graphs"

"$bin/gsearch" -store "$store" -queries "$d/q.graphs" -k 3 | tee "$d/mapped.txt"
grep -q 'mapped engine' "$d/mapped.txt"
"$bin/gsearch" -store "$store" -queries "$d/q.graphs" -k 3 -engine verified -factor 2 | tee "$d/verified.txt"
grep -q 'verified engine' "$d/verified.txt"

echo '{"stages":[{"filter":{"min_edges":1}},{"count":{}}]}' |
	"$bin/gq" -pipeline - -store "$store" | tee "$d/count.json"
grep -q '"count": 40' "$d/count.json"

# A flipped byte in a shard file's body fails the open by its checksum;
# the original store still answers.
bad=$d/bad-store
cp -r "$store" "$bad"
shard=$(ls "$bad"/default/shard-*.gdx | head -n 1)
off=$((($(wc -c < "$shard") - 88) / 2)) # mid-body: the last 88 bytes are the trailer
byte=$(od -An -tu1 -j "$off" -N1 "$shard" | tr -d ' ')
printf "\\$(printf %o $((byte ^ 1)))" | dd of="$shard" bs=1 seek="$off" conv=notrunc status=none
if "$bin/gsearch" -store "$bad" -queries "$d/q.graphs" -k 3 > /dev/null 2> "$d/bad.err"; then
	echo "gsearch served a store with a corrupt shard file" >&2
	exit 1
fi
cat "$d/bad.err"
grep -q 'body checksum' "$d/bad.err"
"$bin/gsearch" -store "$store" -queries "$d/q.graphs" -k 3 > "$d/intact.txt"
grep -q 'mapped engine' "$d/intact.txt"

# A store of v5 shard files, which only the previous release reads, is
# refused naming the format, and the refused open changes none of its
# files.
fixture=graphdim/testdata/v5store
v5=$d/v5-store
cp -r "$fixture" "$v5"
if "$bin/gsearch" -store "$v5" -queries "$d/q.graphs" -k 3 > /dev/null 2> "$d/v5.err"; then
	echo "gsearch served a v5 store" >&2
	exit 1
fi
cat "$d/v5.err"
grep -q 'v5' "$d/v5.err"
for f in "$fixture"/store.json "$fixture"/c/shard-*.gdx; do
	cmp "$f" "$v5/${f#"$fixture"/}"
done

# start_gserve serves the store in the background, logging to $1, and
# sets pid and addr once it listens.
start_gserve() {
	"$bin/gserve" -data "$store" -addr 127.0.0.1:0 2> "$1" &
	pid=$!
	addr=
	for _ in $(seq 100); do
		addr=$(sed -n 's/^gserve: listening on //p' "$1")
		[ -n "$addr" ] && break
		sleep 0.1
	done
	[ -n "$addr" ] || { cat "$1"; echo "gserve did not start" >&2; exit 1; }
}

start_gserve "$d/gserve-killed.log"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz")
[ "$code" = 200 ] || { echo "/healthz answered $code" >&2; exit 1; }
code=$(curl -s -o "$d/search.json" -w '%{http_code}' --data-binary @"$d/q.graphs" \
	"http://$addr/v1/collections/default/search?k=3")
[ "$code" = 200 ] || { cat "$d/search.json"; echo "search answered $code" >&2; exit 1; }
code=$(curl -s -o "$d/add.json" -w '%{http_code}' --data-binary @"$d/q.graphs" \
	"http://$addr/v1/collections/default/add")
[ "$code" = 200 ] || { cat "$d/add.json"; echo "add answered $code" >&2; exit 1; }

# A crash: the three adds exist only in the write-ahead log. gsearch
# opens the stopped directory as its owner and replays them.
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
"$bin/gsearch" -store "$store" -queries "$d/q.graphs" -k 3 > /dev/null 2> "$d/killed.err" || true
cat "$d/killed.err"
grep -q ' 43 graphs' "$d/killed.err" ||
	{ echo "gsearch on the killed directory lost acknowledged adds" >&2; exit 1; }
start_gserve "$d/gserve.log"
curl -s "http://$addr/v1/collections/default" | tee "$d/stats.json"
grep -Eq '"next_id": ?43[,}]' "$d/stats.json" && grep -Eq '"graphs": ?43[,}]' "$d/stats.json" ||
	{ echo "the restarted gserve lost acknowledged adds" >&2; exit 1; }

# The live directory has one owner: gsearch is refused naming the lock,
# and the server keeps answering.
if "$bin/gsearch" -store "$store" -queries "$d/q.graphs" -k 3 > /dev/null 2> "$d/live.err"; then
	echo "gsearch opened a directory a live gserve owns" >&2
	exit 1
fi
cat "$d/live.err"
grep -q 'in use by another process' "$d/live.err"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz")
[ "$code" = 200 ] || { echo "/healthz answered $code beside a refused gsearch" >&2; exit 1; }

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
cat "$d/gserve.log"
[ "$status" = 0 ] || { echo "gserve exited $status after SIGTERM" >&2; exit 1; }
grep -q 'shut down cleanly' "$d/gserve.log"
echo "cli smoke: ok"
