#!/usr/bin/env bash
# A/A gate: two interleaved sets of runs of the SAME build on the SAME seeds
# (A1 B1 A2 B2 ..., run i of either set uses seed i). For each end-to-end
# metric of each workload in BENCHMARK.json it prints both medians, how much
# worse the second is than the first, and each set's (p75 - p25) / median.
# It fails if a median worsens by more than the metric's bound, if any spread
# (setup_s included) exceeds the bound, if a run fails verification, or if a
# run's set-up is under 4 s or its timed section under run_seconds.
#
#   bash benchmark/aa.sh [runs-per-set, default 10] [workload ...] > benchmark/AA.md
#
# Naming workloads measures those instead of BENCHMARK.json's, e.g. the
# query workloads the driver does not gate.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs="${1:-10}"
if [ "$runs" -lt 5 ]; then echo "aa.sh: at least 5 runs per set" >&2; exit 2; fi
out="$PWD/.bench_build/metaprep-bench/aa"
rm -rf "$out"; mkdir -p "$out"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="${*:2}"
if [ -z "$workloads" ]; then
  workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi
for w in $workloads; do
  for i in $(seq 1 "$runs"); do
    for set in A B; do
      echo "aa.sh: $w set $set run $i seed $i" >&2
      bash benchmark/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 > "$out/$w.$set.$i.txt"
    done
  done
done
python3 - "$out" "$runs" $workloads <<'PY'
import json, re, statistics, sys, platform, subprocess
out, runs, names = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
ok = True
print("# A/A: two interleaved sets of the same build on the same seeds\n")
print(f"{runs} runs per set per workload, {bench['run_seconds']} s timed sections, seeds 1..{runs} in both sets.")
print(f"Host: {platform.machine()}, {subprocess.run(['nproc'], capture_output=True, text=True).stdout.strip()} CPUs; {subprocess.run(['go', 'version'], capture_output=True, text=True).stdout.strip()}.")
print("`worse` is how far set B's median is on the bad side of set A's; `spread` is (p75 - p25) / median by `statistics.quantiles(n=4)`.\n")
for name in names:
    print(f"## {name}\n")
    sets, timed, slices = {}, [], []
    for s in "AB":
        sets[s] = []
        for i in range(1, runs + 1):
            text = open(f"{out}/{name}.{s}.{i}.txt").read()
            r = json.loads(text.strip().splitlines()[-1])
            if not r["correct"] or r["failed"] != 0:
                ok = False
                print(f"set {s} run {i}: failed verification\n")
            m = re.search(r"timed section: (\d+) slices in ([0-9.]+) s", text)
            slices.append(int(m.group(1)))
            timed.append(float(m.group(2)))
            sets[s].append(r)
    setups = [r["metrics"]["setup_s"]["value"] for s in "AB" for r in sets[s]]
    floor_ok = min(setups) >= 4 and min(timed) >= bench["run_seconds"]
    ok = ok and floor_ok
    print(f"Over the {2*runs} runs: set-up {min(setups):.2f}-{max(setups):.2f} s (floor 4 s), "
          f"timed section {min(timed):.1f}-{max(timed):.1f} s (floor {bench['run_seconds']} s), "
          f"{min(slices)}-{max(slices)} slices: {'ok' if floor_ok else 'FAIL'}\n")
    print("| metric | unit | bound | median A | median B | worse | spread A | spread B | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        vals = {s: [r["metrics"][m["name"]]["value"] for r in sets[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        spread = {}
        for s in "AB":
            q = statistics.quantiles(vals[s], n=4)
            spread[s] = (q[2] - q[0]) / med[s]
        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        bad = worse > m["bound"] or max(spread.values()) > m["bound"]
        ok = ok and not bad
        print(f"| `{m['name']}` | {m['unit']} | {m['bound']:.0%} | {med['A']:.6g} | {med['B']:.6g} | {worse:+.2%} | "
              f"{spread['A']:.2%} | {spread['B']:.2%} | {'FAIL' if bad else 'ok'} |")
    print()
print("Result: " + ("PASS" if ok else "FAIL"))
sys.exit(0 if ok else 1)
PY
