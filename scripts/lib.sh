# Sourced (from the repo root) by the smoke scripts that drive the real
# spacejmp-server binary. Sourcing makes $tmp and traps its removal, and the
# server's death, on EXIT. boot_server <script name> <server flags...> builds
# spacejmp-server and spacejmp-load into $tmp, starts the server on free
# loopback ports, waits for its "listening on" and "admin on" lines and leaves
# the two addresses in $addr and $admin; stop_server ends it in the normal
# course of a run.
tmp=$(mktemp -d)
srv_pid=
trap 'test -n "$srv_pid" && kill "$srv_pid" 2>/dev/null; rm -rf "$tmp"' EXIT

boot_server() {
    smoke=$1
    shift
    go build -o "$tmp/spacejmp-server" ./cmd/spacejmp-server
    go build -o "$tmp/spacejmp-load" ./cmd/spacejmp-load
    "$tmp/spacejmp-server" -addr 127.0.0.1:0 -admin 127.0.0.1:0 "$@" 2>"$tmp/server.log" &
    srv_pid=$!
    addr=
    admin=
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/.*listening on \([^ ]*\) .*/\1/p' "$tmp/server.log")
        admin=$(sed -n 's|.*admin on http://\([^ ]*\) .*|\1|p' "$tmp/server.log")
        [ -n "$addr" ] && [ -n "$admin" ] && return 0
        kill -0 "$srv_pid" 2>/dev/null || break
        sleep 0.1
        i=$((i + 1))
    done
    echo "$smoke: server died or never came up" >&2
    cat "$tmp/server.log" >&2
    exit 1
}

stop_server() {
    kill "$srv_pid"
    wait "$srv_pid" 2>/dev/null || true
    srv_pid=
}
