#!/usr/bin/env bash
# End-to-end exercise of `siqsim serve`: a unix-socket daemon serves
# two overlapping clients whose streamed exports are byte-identical
# to batch `siqsim run --json` output, survives a client vanishing
# mid-request, and reports malformed requests without dying.
#
# Usage: cli_serve_smoke.sh /path/to/siqsim /path/to/python3
set -euo pipefail

SIQSIM=${1:?usage: cli_serve_smoke.sh /path/to/siqsim /path/to/python3}
PYTHON=${2:-python3}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/siqsim_serve.XXXXXX")
DAEMON=
cleanup() {
    [ -n "$DAEMON" ] && kill "$DAEMON" 2> /dev/null || true
    [ -n "$DAEMON" ] && wait "$DAEMON" 2> /dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

cat > client.py << 'EOF'
"""Send one request over the serve socket, write its export."""
import json, socket, sys

path, reqid, specfile, outfile = sys.argv[1:5]
spec = json.load(open(specfile))
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall((json.dumps({"id": reqid, "spec": spec}) + "\n").encode())
events = []
for line in s.makefile("r"):
    rec = json.loads(line)
    if rec.get("id") != reqid:
        continue
    events.append(rec["event"])
    if rec["event"] == "error":
        sys.exit("server error: " + rec["error"])
    if rec["event"] == "done":
        assert events[0] == "accepted", events
        assert "cell" in events, events
        assert rec["cancelled"] is False, rec
        open(outfile, "w").write(rec["export"])
        break
else:
    sys.exit("connection closed before done record")
s.close()
EOF

cat > vanish.py << 'EOF'
"""Submit a request, read the accepted record, hang up mid-flight."""
import json, socket, sys

path, specfile = sys.argv[1:3]
spec = json.load(open(specfile))
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall((json.dumps({"id": "doomed", "spec": spec}) + "\n").encode())
line = s.makefile("r").readline()
assert json.loads(line)["event"] == "accepted", line
s.close()  # reader gone: the daemon must hard-close, not die
EOF

cat > badline.py << 'EOF'
"""Malformed input must yield an error record, then a clean EOF."""
import json, socket, sys

path = sys.argv[1]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(b'{"definitely not json\n')
s.shutdown(socket.SHUT_WR)
recs = [json.loads(l) for l in s.makefile("r")]
assert len(recs) == 1 and recs[0]["event"] == "error", recs
assert recs[0]["id"] is None, recs
s.close()
EOF

"$SIQSIM" spec --workloads gzip,mcf --techniques baseline,noop \
    --warmup 2000 --measure 10000 --rep-divisor 40 --seeds 2 \
    --out specA.json
"$SIQSIM" spec --workloads gzip --techniques baseline \
    --warmup 2000 --measure 10000 --rep-divisor 40 --seeds 2 \
    --out specB.json

# the batch baselines the daemon's exports must reproduce exactly
"$SIQSIM" run --spec specA.json --json batchA.json
"$SIQSIM" run --spec specB.json --json batchB.json

SOCK=$WORK/serve.sock
"$SIQSIM" serve --socket "$SOCK" 2> serve.log &
DAEMON=$!
for _ in $(seq 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$DAEMON" 2> /dev/null || { cat serve.log; exit 1; }
    sleep 0.1
done
[ -S "$SOCK" ]
grep -q "listening on $SOCK" serve.log

# two overlapping clients: B's only cell is a sub-grid of A's, so the
# daemon serves it from A's in-flight simulation or the result cache
# — either way both exports must be byte-identical to the batch runs
"$PYTHON" client.py "$SOCK" ra specA.json serveA.json &
CA=$!
"$PYTHON" client.py "$SOCK" rb specB.json serveB.json &
CB=$!
wait "$CA"
wait "$CB"
cmp batchA.json serveA.json
cmp batchB.json serveB.json

# a client that hangs up mid-request must not take the daemon down
"$PYTHON" vanish.py "$SOCK" specA.json
kill -0 "$DAEMON"

# nor must a malformed request line
"$PYTHON" badline.py "$SOCK"
kill -0 "$DAEMON"

# the daemon still serves correct results after both abuses
"$PYTHON" client.py "$SOCK" again specB.json serveB2.json
cmp batchB.json serveB2.json

kill "$DAEMON"
wait "$DAEMON" 2> /dev/null || true
DAEMON=

echo "cli_serve_smoke: OK"
