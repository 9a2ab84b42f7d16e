#!/usr/bin/env bash
# Checks that the CLI writes the same bytes on one CPU as on all CPUs, and, when
# BASE_SRC (the src directory of another checkout) is given, the same bytes as that
# checkout does.
#
#   tools/same_outputs.sh [BASE_SRC]
#
# One matrix of invocations makes a tree of outputs three times: under `taskset -c 0`
# with this checkout's src (one_cpu), on all CPUs with it (all_cpus), and on all CPUs
# with BASE_SRC (base). Each tree is made in a fresh directory with relative paths,
# and the stdout, stderr and exit code of every invocation are saved beside its
# outputs as NAME.out, NAME.err and NAME.code, so `diff -r` compares all of them.
# Exits 0 when everything matches, 1 naming each file that differs (the trees are
# then kept for inspection), and 2 when the check cannot run.
set -euo pipefail
export PYTHONDONTWRITEBYTECODE=1

src=$(cd "$(dirname "$0")/../src" && pwd)
base=${1:+$(cd "$1" && pwd)} || exit 2
cpus=$(python3 -c "import os; print(len(os.sched_getaffinity(0)))")
if [ "$cpus" -lt 2 ]; then
  echo "same_outputs.sh: only $cpus usable CPU, so one CPU cannot be told from all CPUs" >&2
  exit 2
fi
work=$(mktemp -d)
status=0

# run CODE NAME ARGS...: one CLI invocation in the current tree, which must exit CODE
run() {
  local code=0
  $pin env PYTHONPATH="$tree_src" python3 -m v2vbeam.cli "${@:3}" >"$2.out" 2>"$2.err" || code=$?
  echo "$code" >"$2.code"
  if [ "$code" != "$1" ]; then
    echo "${PWD##*/}/$2 exited $code, not $1" >&2
    status=1
  fi
}

# tree DIR SRC [PIN]: make every output of the matrix in DIR with SRC, run under PIN
tree() {
  tree_src=$2 pin=${3:-}
  mkdir "$work/$1" && cd "$work/$1"
  if ! PYTHONPATH="$tree_src" python3 -c \
    "import sys, v2vbeam; sys.exit(not v2vbeam.__file__.startswith(sys.argv[1] + '/'))" "$tree_src"; then
    echo "same_outputs.sh: v2vbeam is not imported from $tree_src" >&2
    exit 2
  fi
  cat >scenario.json <<'JSON'
{"codebook_size": 64,
 "trajectory": {"duration": 300.0, "sample_period": 0.1, "rx_heading": 1.5707963267948966,
                "origin": {"lat": 33.42, "lon": -111.93},
                "tx_waypoints": [[-60.0, 20.0], [60.0, 50.0]], "rx_waypoints": [[0.0, 0.0]]},
 "channel": {"n_subcarriers": 16, "noise_power": 1e-4, "seed": 5}}
JSON
  cat >report.json <<JSON
{"seed": 3, "dataset": {"synthetic": $(cat scenario.json)},
 "model": {"conv_channels": [8, 16], "dense_hidden": [32]}, "training": {"epochs": 2},
 "baseline": {"bins_per_axis": 16}, "m_values": [1, 5], "repeats": 2}
JSON
  cat >train.json <<'JSON'
{"seed": 1, "dataset": {"csv": "data.csv"},
 "model": {"conv_channels": [8, 16], "dense_hidden": [32]}, "training": {"epochs": 2},
 "baseline": {"bins_per_axis": 16}, "m_values": [1, 5]}
JSON
  cat >unknown_key.json <<'JSON'
{"seed": 1, "dataset": {"csv": "data.csv"}, "epochs": 2}
JSON
  # 3,000 rows: six 512-row chunks of synthesis and of the CSV write, twelve
  # 256-line spans of the parse, shared out to pool workers on all CPUs
  run 0 generate generate --config scenario.json --out data.csv
  # a seed of three uint32 words (2**70) takes the noise states' multi-word path
  run 0 generate_seed70 generate --config scenario.json --seed 1180591620717411303424 \
    --out data_seed70.csv
  # 400 rows: one chunk, synthesised and formatted in the calling process alone
  sed 's/"duration": 300.0/"duration": 40.0/' scenario.json >one_chunk.json
  grep -q '"duration": 40.0' one_chunk.json
  run 0 generate_one_chunk generate --config one_chunk.json --out data_one_chunk.csv
  # the transmitter leaves the receiver's front half-plane at sample 750, in the second
  # chunk, after the first chunk is written: exit 4, and no file is left behind
  cat >late_exit.json <<'JSON'
{"trajectory": {"duration": 100.0, "rx_heading": 1.5707963267948966,
                "tx_waypoints": [[-80.0, 60.0], [80.0, -20.0]], "rx_waypoints": [[0.0, 0.0]]},
 "channel": {"noise_power": 1e-4, "seed": 5}}
JSON
  run 4 generate_late_exit generate --config late_exit.json --out data_late_exit.csv
  # the CR before each LF is dropped, so the CRLF copy is parsed in the same spans;
  # a quote sends the whole quoted copy to the csv.reader row loop instead
  sed 's/$/\r/' data.csv >crlf.csv
  sed '2s/^[^,]*/"&"/' data.csv >quoted.csv
  grep -q '^"' quoted.csv
  run 0 train train --config train.json --out model
  for data in data crlf quoted; do
    run 0 "eval_$data" eval --checkpoint model/checkpoint.json --dataset "$data.csv" \
      --out "eval_$data"
  done
  # "both" mode feeds the receiver's fixes to the model too, so its checkpoint holds
  # a longer input; a tx checkpoint relabelled "both" must be refused
  sed 's/"dense_hidden": \[32\]/&, "input_mode": "both"/' train.json >train_both.json
  grep -q '"input_mode": "both"' train_both.json
  run 0 train_both train --config train_both.json --out model_both
  run 0 eval_both eval --checkpoint model_both/checkpoint.json --dataset data.csv --out eval_both
  # the default spec in "both" mode: its third block sees length 1, so the one-tap
  # conv path runs after a length-2 block; the 1,800 training rows end in a partial
  # batch and the 600 validation rows in a partial 128-row scoring chunk
  cat >train_both_default.json <<'JSON'
{"seed": 1, "dataset": {"csv": "data.csv"}, "model": {"input_mode": "both"},
 "training": {"epochs": 2}, "baseline": {"bins_per_axis": 16}, "m_values": [1, 5]}
JSON
  run 0 train_both_default train --config train_both_default.json --out model_both_default
  run 0 eval_both_default eval --checkpoint model_both_default/checkpoint.json \
    --dataset data.csv --out eval_both_default
  sed 's/"input_mode": "tx"/"input_mode": "both"/' model/checkpoint.json >relabelled.json
  grep -q '"input_mode": "both"' relabelled.json
  run 2 eval_relabelled eval --checkpoint relabelled.json --dataset data.csv --out eval_relabelled
  # on all CPUs the second repeat trains in a pool worker, on one CPU in the caller
  run 0 report report --config report.json --out report
  run 3 eval_missing eval --checkpoint model/checkpoint.json --dataset missing.csv --out eval_missing
  run 2 unknown_key report --config unknown_key.json --out unknown_key
}

tree one_cpu "$src" "taskset -c 0"
tree all_cpus "$src"
if [ -n "$base" ]; then
  tree base "$base"
fi
cd "$work"
diff -rq one_cpu all_cpus || status=1
if [ -n "$base" ]; then
  diff -rq base all_cpus || status=1
fi
for copy in crlf quoted; do
  cmp "all_cpus/eval_$copy/report.csv" all_cpus/eval_data/report.csv || status=1
done
if [ "$status" = 0 ]; then
  rm -rf "$work"
  echo "same outputs: one CPU and all CPUs${base:+, and $base}"
else
  echo "outputs differ; the trees are kept in $work" >&2
fi
exit "$status"
