# smoke_lib.sh — the plumbing every process-level smoke script shares.
# Source it after naming the script, from the repository root:
#
#   SMOKE=wire-smoke
#   . scripts/smoke_lib.sh
#
# It makes a scratch directory $TMP and installs a trap that SIGKILLs every
# process smoke_start launched and is still running, then removes $TMP.
# Each process NAME logs to $TMP/NAME.log and keeps its pid in
# $TMP/NAME.pid.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)

smoke_cleanup() {
    for f in "$TMP"/*.pid; do
        [ -e "$f" ] || continue
        pid=$(cat "$f")
        if kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$TMP"
}
trap smoke_cleanup EXIT INT TERM

# smoke_fail MSG [NAME...] prints MSG and then each named process's log,
# and exits 1.
smoke_fail() {
    echo "$SMOKE: $1" >&2
    shift
    for name in "$@"; do
        cat "$TMP/$name.log" >&2
    done
    exit 1
}

# smoke_build PKG... builds each ./cmd/PKG into $TMP/PKG. A compile error
# must name itself, not surface later as a confusing readiness timeout, so
# each build is checked on its own rather than left to set -e.
smoke_build() {
    echo "$SMOKE: building binaries..."
    for pkg in "$@"; do
        $GO build -o "$TMP/$pkg" "./cmd/$pkg" ||
            smoke_fail "FAILED to build ./cmd/$pkg — fix the compile error above"
    done
}

# smoke_start NAME BINARY ARGS... runs $TMP/BINARY in the background,
# logging to $TMP/NAME.log.
smoke_start() {
    name=$1
    bin=$2
    shift 2
    "$TMP/$bin" "$@" >"$TMP/$name.log" 2>&1 &
    echo $! >"$TMP/$name.pid"
}

# smoke_pid NAME prints the pid of a process smoke_start launched.
smoke_pid() {
    cat "$TMP/$1.pid"
}

# smoke_kill NAME SIGKILLs a process and forgets it.
smoke_kill() {
    kill -9 "$(smoke_pid "$1")" 2>/dev/null || true
    rm -f "$TMP/$1.pid"
}

# smoke_drain NAME sends SIGTERM and requires a clean drain: exit status
# 0 and the "bye:" line, which the servers print only after every
# accepted request is answered.
smoke_drain() {
    echo "$SMOKE: draining $1 with SIGTERM..."
    pid=$(smoke_pid "$1")
    kill -TERM "$pid"
    status=0
    wait "$pid" || status=$?
    rm -f "$TMP/$1.pid"
    [ "$status" -eq 0 ] || smoke_fail "$1 exited with status $status; log:" "$1"
    grep -q "bye:" "$TMP/$1.log" || smoke_fail "$1 never reported a completed drain; log:" "$1"
}

# fetch URL prints the body of a GET.
fetch() {
    curl -fsS "$1" 2>/dev/null || wget -qO- "$1"
}
