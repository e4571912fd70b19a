#!/usr/bin/env bash
# Checks that every "BENCH_<name>: <json>" line on stdin is valid JSON
# (python3 -m json.tool).  Fails on the first invalid line, and when there
# is no such line at all.  Usage: PROGRAM | tee LOG; tools/check_bench_lines.sh < LOG
set -euo pipefail
n=0
while IFS= read -r line; do
  case "$line" in
    BENCH_*:\ *)
      if ! printf '%s\n' "${line#*: }" | python3 -m json.tool > /dev/null; then
        echo "check_bench_lines: invalid JSON: $line" >&2
        exit 1
      fi
      n=$((n + 1))
      ;;
  esac
done
if [ "$n" -eq 0 ]; then
  echo "check_bench_lines: no BENCH_ line found" >&2
  exit 1
fi
echo "check_bench_lines: $n BENCH_ line(s) are valid JSON"
