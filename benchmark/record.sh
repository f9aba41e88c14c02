#!/usr/bin/env bash
# Runs the whole benchmark once and records the run, fully described, in
# benchmark/REFERENCE_RUN.json: commit, seed, machine, and for every workload
# the requests attempted, succeeded and failed and every metric's quiet
# value, median and quartiles.
#
#   benchmark/record.sh [--seed N] [--seconds S]
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
log="${CARGO_TARGET_DIR:-$here/target}/reference-run.txt"
mkdir -p "$(dirname "$log")"
"$here/run.sh" "$@" | tee "$log"

python3 - "$log" "$here" > "$here/REFERENCE_RUN.json" <<'PY'
import json, platform, re, subprocess, sys

log, here = sys.argv[1], sys.argv[2]

def git(*args):
    try:
        return subprocess.check_output(("git", "-C", here) + args, text=True).strip()
    except Exception:
        return "unknown"

cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), "unknown")
run = {
    "seed": None, "seconds": None, "round_ms": None, "QPP_THREADS": None, "nproc": None,
    "commit": git("rev-parse", "HEAD"),
    "uncommitted_changes": git("status", "--porcelain") != "",
    "cpu_model": cpu,
    "kernel": platform.release(),
    "workloads": {},
}
section = None
for line in open(log):
    line = line.rstrip("\n")
    if m := re.match(r"# workload (\S+) \((untraced|traced)\)", line):
        section = run["workloads"].setdefault(m[1], {}).setdefault(m[2], {"metrics": {}})
    elif m := re.match(r"# requests attempted (\d+) succeeded (\d+) failed (\d+)", line):
        section["requests"] = {"attempted": int(m[1]), "succeeded": int(m[2]), "failed": int(m[3])}
    elif m := re.match(r"# seed (\d+) \| (\S+) s in rounds of (\d+) ms \| QPP_THREADS (\S+) \| nproc (\d+)", line):
        run.update(seed=int(m[1]), seconds=float(m[2]), round_ms=int(m[3]), QPP_THREADS=m[4], nproc=int(m[5]))
    elif line.startswith("# CHECK FAILED") or line.startswith("# WARNING"):
        section.setdefault("remarks", []).append(line[2:])
    elif m := re.match(r"(\S+) (\S+) (\S+)(?:\s+# (\d+) rounds: quiet (\S+), median (\S+), quartiles (\S+) \.\. (\S+))?$", line):
        metric = {"value": float(m[2]), "unit": m[3]}
        if m[4]:
            metric.update(rounds=int(m[4]), quiet=float(m[5]), median=float(m[6]), q1=float(m[7]), q3=float(m[8]))
        section["metrics"][m[1]] = metric

def dump(value, indent=0):
    """JSON with one metric per line."""
    pad = " " * indent
    if isinstance(value, dict) and any(isinstance(v, dict) for v in value.values()) and "value" not in value:
        items = [f'{pad} {json.dumps(k)}: {dump(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    return json.dumps(value)

print(dump(run))
PY
echo "wrote $here/REFERENCE_RUN.json" >&2
