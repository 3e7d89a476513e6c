#!/bin/sh
# Prints `repro query <key> --local` (stdout and stderr) for a fixed key
# list: every pattern class on one chip, both WCDP kinds, a temperature
# and an on-time override, two bad requests, one fault-injected key that
# retries, a malformed key and an on-time past tREFW. CI diffs the output against docs/query_quick_output.txt.
#
#   sh docs/query_golden.sh ./target/release/repro > docs/query_quick_output.txt
set -u
REPRO=${1:-./target/release/repro}
SKA='family=SK Hynix-A-4Gb;chip=0'

q() {
    key=$1
    shift
    echo "# $key${*:+ $*}"
    "$REPRO" query "$key" --local "$@" 2>&1
    echo "exit=$?"
}

for p in rh-ds rh-ss comra-ds comra-ss simra-2 simra-4 simra-8 simra-16 simra-32; do
    q "$SKA;pattern=$p"
done
q "$SKA;pattern=comra-ds;dp=wcdp"
q "$SKA;pattern=simra-4;dp=wcdp"
q "$SKA;pattern=rh-ds;temp_cc=5000"
q "$SKA;pattern=rh-ds;aggon_ps=7800000"
q 'family=Samsung-C-4Gb;chip=0;pattern=simra-4'
q 'family=Samsung-C-16Gb;chip=0;pattern=rh-ds' --fault-seed 103
q bogus
q "$SKA;pattern=rh-ds;aggon_ps=64000000001"
