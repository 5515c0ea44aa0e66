#!/usr/bin/env bash
# End-to-end checks of the wnucsp command line: difftests that link several
# variables in Step 2 or shrink a domain in Step 3, difftests at 9-10
# variables where Step 1 does most of the work, gen, solve, a traced solve
# whose JSON event count matches its printed events, a traced Step 2
# reduction, a traced Step 13 that finds no equation, a traced depth-0
# Step 3 reduction, a file with a non-integer tuple entry that must name
# its line, classify to each kind of report line, WNU search and an option
# check.
#
# The arguments are the command that runs wnucsp, for example
#
#     bash ci/cli_checks.sh wnucsp
#     PYTHONPATH="$PWD/src" bash ci/cli_checks.sh python -m wnucsp.cli
#
# The checks run in a new temporary directory, removed on exit, so a
# relative PYTHONPATH does not reach the package.
set -eo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]" >&2
  exit 2
fi
cmd=("$@")
wnucsp() { command "${cmd[@]}" "$@"; }
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
wnucsp difftest --n 1 --seed 100013 --domain-size 6 --wnu sum --wnu-arity 7 --vars 6 --constraints 6 --sat-bias
wnucsp difftest --n 40 --seed 0 --vars 6 --constraints 6 --sat-bias --domain-size 4 --wnu sum --wnu-arity 5
wnucsp difftest --n 40 --seed 0 --vars 6 --constraints 6 --sat-bias --domain-size 3 --wnu search
wnucsp difftest --n 40 --seed 0 --vars 6 --constraints 6 --sat-bias --domain-size 4 --wnu search
wnucsp difftest --n 40 --seed 0 --vars 6 --constraints 6 --sat-bias --domain-size 3 --wnu dd
wnucsp difftest --n 40 --seed 0 --vars 6 --constraints 6 --sat-bias --domain-size 2 --wnu and --wnu-arity 3
wnucsp difftest --n 1 --seed 206 --vars 6 --constraints 6 --sat-bias --domain-size 4 --wnu sum --wnu-arity 5
wnucsp difftest --n 1 --seed 630 --vars 6 --constraints 6 --sat-bias --domain-size 4 --wnu sum --wnu-arity 5
wnucsp difftest --n 1 --seed 1346 --vars 6 --constraints 6 --sat-bias --domain-size 4 --wnu sum --wnu-arity 5
wnucsp difftest --n 1 --seed 100075 --vars 6 --constraints 6 --sat-bias --domain-size 4 --wnu sum --wnu-arity 5
for wnu in "--wnu majority" "--wnu minority" "--wnu and --wnu-arity 3"; do
  wnucsp difftest --n 20 --seed 0 --vars 10 --constraints 10 --domain-size 2 $wnu
  wnucsp difftest --n 20 --seed 0 --vars 10 --constraints 10 --domain-size 2 $wnu --sat-bias
done
wnucsp difftest --n 10 --seed 0 --vars 9 --constraints 9 --domain-size 3 --wnu dd
wnucsp gen --seed 4 --domain-size 4 --wnu-arity 5 --wnu sum --vars 4 --constraints 4 --out gen.csp
code=0; wnucsp solve gen.csp --json > solve.json || code=$?
python3 -c 'import json, sys; d = json.load(open("solve.json"))["decision"]; sys.exit(0 if int(sys.argv[1]) == {"sat": 0, "unsat": 1}[d] else 1)' "$code"
code=0; wnucsp solve gen.csp --trace --json 2> trace.err > trace.json || code=$?; test "$code" -le 1
python3 -c 'import json, sys; n = json.load(open("trace.json"))["trace_events"]; lines = sum(line.startswith("[trace]") for line in open("trace.err")); sys.exit(0 if 0 < n == lines else 1)'
code=0; wnucsp oracle gen.csp --max-nodes 5 || code=$?; test "$code" -eq 3
python3 -c 'import itertools as it; p = lambda n, r: [" ".join(map(str, t)) for t in it.product(range(4), repeat=n) if sum(t) % 2 == r]; print("\n".join(["DOMAIN D 4", "WNU D 5 SUM", "VAR x D", "VAR y D", "VAR z D", "REL P 2 D D", *p(2, 0), "END", "REL O 3 D D D", *p(3, 1), "END", "CON P x y", "CON P y z", "CON O x y z"]))' > step2.csp
wnucsp solve step2.csp --trace 2> step2.err
grep -qxF "[trace] step 2 (depth 0, t3 0): reduce x to [1, 3]" step2.err
python3 - > step13.csp <<'PY'
import itertools as it
eqs = [("x3 x0 x5", (1, 3, 1), 0), ("x4 x0 x6", (1, 1, 3), 3),
       ("x4 x1 x5", (3, 3, 2), 2), ("x6 x3 x2", (2, 1, 2), 3),
       ("x7 x3", (2, 2), 0), ("x2 x0 x7", (3, 2, 1), 1),
       ("x3 x5", (3, 3), 3), ("x4 x6 x5", (3, 3, 1), 2)]
print("DOMAIN D 4", "WNU D 5 SUM", sep="\n")
print(*("VAR x%d D" % i for i in range(8)), sep="\n")
for i, (_, c, r) in enumerate(eqs):
    print("REL E%d %d" % (i, len(c)), *["D"] * len(c))
    for t in it.product(range(4), repeat=len(c)):
        if sum(a * b for a, b in zip(c, t)) % 4 == r:
            print(*t)
    print("END")
print(*("CON E%d %s" % (i, s) for i, (s, _, _) in enumerate(eqs)), sep="\n")
PY
code=0; wnucsp solve step13.csp --trace 2> step13.err || code=$?; test "$code" -eq 1
grep -qxF "[trace] step 13 (depth 0, t3 0): no equation exists" step13.err
wnucsp gen --seed 630 --domain-size 4 --wnu-arity 5 --wnu sum --vars 6 --constraints 6 --sat-bias --out step3.csp
wnucsp solve step3.csp --trace 2> step3.err
grep -qxF "[trace] step 3 (depth 0, t3 0): reduce x4 to [1, 3]" step3.err
printf '%s\n' "DOMAIN B 2" "VAR x B" "VAR y B" "REL R 2 B B" "0 0" "0 x" "END" "CON R x y" > badentry.csp
code=0; wnucsp solve badentry.csp 2> badentry.err || code=$?; test "$code" -eq 3
test "$(cat badentry.err)" = "error: line 6: non-integer tuple entry"
wnucsp gen --seed 4 --domain-size 6 --wnu-arity 7 --wnu sum --vars 4 --constraints 4 --out z6.csp
wnucsp classify z6.csp > z6.out
grep -q linear-quotient z6.out
printf '%s\n' "DOMAIN A 4" "WNU A 3 0 0 0 0 0 0 0 0 0 0 2 0 0 0 0 3 0 0 0 0 0 1 1 1 0 1 2 1 0 1 1 3 0 0 2 0 0 1 2 1 2 2 2 2 0 1 2 3 0 0 0 3 0 1 1 3 0 1 2 3 3 3 3 3" "VAR a A" \
  "DOMAIN B 4" "WNU B 3 0 0 0 0 0 1 0 0 0 0 2 2 0 0 2 3 0 1 2 0 1 1 1 1 2 1 2 0 0 1 0 1 0 0 2 2 2 1 2 0 2 2 2 2 3 0 2 3 0 0 3 3 0 1 0 1 3 0 2 3 3 1 3 3" "VAR b B" \
  "DOMAIN C 2" "WNU C 3 0 0 0 0 0 0 0 1" "VAR c C" > structures.csp
wnucsp classify structures.csp > structures.out
grep -qxF "A: center C=[0] witness=central-relation" structures.out
grep -qxF "B: pc-quotient classes=[[0], [1], [2], [3]]" structures.out
grep -qxF "C: binary-absorbing B=[0] t=[0, 0, 0, 1]" structures.out
wnucsp gen --seed 4 --domain-size 3 --wnu dd --vars 3 --constraints 2 --out dd3.csp
wnucsp wnu dd3.csp --arity 3
code=0; wnucsp wnu dd3.csp --arity 3 --max-nodes 5 > wnu.out || code=$?; test "$code" -eq 2
grep -q "NONE (budget exceeded)" wnu.out
