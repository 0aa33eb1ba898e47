#!/usr/bin/env bash
# Repeats the benchmark to show how far its numbers move between runs of the
# same code, and writes a ledger entry:
#
#   bash bench/stability.sh [passes] [seconds] [first-seed] [--trace]
#
# Pass p runs every workload once with seed first-seed+p, in the documented
# order on even passes and reversed on odd ones, so no workload always runs
# first. It prints, per workload and end-to-end metric, the median, the
# quartiles and the spread, (q3 - q1) / median, next to the metric's bound in
# BENCHMARK.json. A bound should be at least three times the spread: a
# metric that cannot get there within its bound needs a longer workload or
# has to go. --trace adds one traced run per workload. Everything lands in
# .bench_build/stability/<time>/: one JSON line per run and ledger.json (host,
# Go version, commit, the statistics, the traced metrics), the shape of
# bench/results/<date>-<commit>.json. Needs python3 for the statistics.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
trace=0
args=()
for a in "$@"; do
	if [[ $a == --trace ]]; then trace=1; else args+=("$a"); fi
done
passes=${args[0]:-10}
seconds=${args[1]:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
seed0=${args[2]:-1}

out="$root/.bench_build/stability/$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$out"
workloads=($(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'))

record() { # workload seed traced file
	local line
	# A run whose outputs are wrong exits 1 but still prints its summary,
	# which the ledger keeps; a run that prints none stops the script.
	line=$(bash bench/run.sh --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" | tail -n 1) || true
	if [[ $line != \{* ]]; then
		echo "stability: $1 seed $2 printed no result" >&2
		exit 1
	fi
	printf '{"workload":"%s","seed":%d,"trace":%d,"result":%s}\n' "$1" "$2" "$3" "$line" >>"$4"
	echo "$1 seed $2 trace $3: done" >&2
}

for ((p = 0; p < passes; p++)); do
	order=("${workloads[@]}")
	if ((p % 2 == 1)); then
		order=($(printf '%s\n' "${workloads[@]}" | tac))
	fi
	for w in "${order[@]}"; do
		record "$w" $((seed0 + p)) 0 "$out/runs.jsonl"
	done
done
if ((trace)); then
	for w in "${workloads[@]}"; do
		record "$w" "$seed0" 1 "$out/runs.jsonl"
	done
fi

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
OUT="$out" COMMIT="$commit" SECONDS_RUN="$seconds" GOVERSION="$(go version)" python3 - <<'EOF'
import json, os, statistics, datetime

out = os.environ["OUT"]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
runs = [json.loads(l) for l in open(os.path.join(out, "runs.jsonl"))]

ledger = {
    "date": datetime.date.today().isoformat(),
    "commit": os.environ["COMMIT"],
    "host": {"nproc": os.cpu_count(), "go": os.environ["GOVERSION"]},
    "run_seconds": int(float(os.environ["SECONDS_RUN"])),
    "untraced": {},
    "traced": {},
}
print(f"{'workload':14} {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
for w in [x["name"] for x in bench["workloads"]]:
    mine = [r for r in runs if r["workload"] == w and r["trace"] == 0]
    if not mine:
        continue
    stats = {"seeds": [r["seed"] for r in mine],
             "failed": sum(r["result"]["failed"] for r in mine),
             "all_correct": all(r["result"]["correct"] for r in mine),
             "metrics": {}}
    for m in bench["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        stats["metrics"][m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "bound": bounds[m["name"]], "values": vals}
        flag = "" if spread * 3 <= bounds[m["name"]] else "  <- spread above bound/3"
        print(f"{w:14} {m['name']:18} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.4f} {bounds[m['name']]:6.2f}{flag}")
    ledger["untraced"][w] = stats
    for r in runs:
        if r["workload"] == w and r["trace"] == 1:
            ms = {k: v["value"] for k, v in sorted(r["result"]["metrics"].items())}
            # prof.<layer> partitions the profile; codec and maps are slices of it.
            folded = sum(v for k, v in ms.items() if k.startswith("prof.") and k.count(".") == 1
                         and k not in ("prof.codec", "prof.attributed_share"))
            ledger["traced"][w] = {"seed": r["seed"], "correct": r["result"]["correct"],
                                   "codec_share": ms.get("prof.codec", 0) / folded if folded else 0,
                                   "metrics": ms}
with open(os.path.join(out, "ledger.json"), "w") as f:
    json.dump(ledger, f, indent=1)
    f.write("\n")
print(f"ledger: {os.path.join(out, 'ledger.json')}")
EOF
