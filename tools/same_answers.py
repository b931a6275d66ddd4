"""Do two source trees give the same answer to every benchmark job?

    python3 tools/same_answers.py OTHER_TREE [--seeds 1 3] [--workloads reduce ...]

Compares the checkout this script sits in with OTHER_TREE, another checkout
of the project. For each workload and seed, each tree builds its job list
in a fresh subprocess from its own `src/` and `perfbench/workloads.py`,
runs every job once and hashes `repr` of the answer (of the exception, if
the job raises). A command-line job answers with its exit code and what it
printed; when that parses as JSON, the document is dumped again in one
canonical form before hashing, so that the layout of the printed JSON does
not count as a difference. Prints each job whose answers differ and exits 1
if any do, 0 otherwise. `--workloads` limits the comparison to the named
workloads (all four by default). Input files go to a temporary directory
outside both trees, at the same path for both, and no bytecode is written.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

# Run in a child process: argv is tree, workload, seed, work directory.
# Prints one JSON object from job name to the hash of its answer.
CHILD = """
import hashlib, json, sys
from pathlib import Path
tree, workload, seed, work = sys.argv[1:]
sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
import workloads
_, jobs = workloads.build(workload, int(seed), Path(work))
out = {}
def canonical(answer):
    # a command-line job answers (exit code, printed text)
    if type(answer) is tuple and len(answer) == 2 and type(answer[1]) is str:
        try:
            doc = json.loads(answer[1])
        except ValueError:
            return answer
        return answer[0], json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return answer
for job in jobs:
    try:
        answer = repr(canonical(job.run()))
    except Exception as exc:
        answer = "raised " + repr(exc)
    out[job.name] = hashlib.sha256(answer.encode()).hexdigest()
assert len(out) == len(jobs), "job names repeat"
print(json.dumps(out))
"""


def answers(tree, workload, seed, work):
    """{job name: answer hash} for one tree, workload and seed."""
    # a fixed hash seed keeps the order of sets of strings and bytes, and so
    # their repr, the same in both trees
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree), workload, str(seed), str(work)],
        capture_output=True, text=True, env=env, cwd=work.parent,
    )
    if proc.returncode:
        sys.exit(f"{tree}: {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3])
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE / "perfbench"))
    from workloads import WORKLOADS

    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args()
    other = args.other.resolve()

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        for workload in args.workloads:
            for seed in args.seeds:
                ours = answers(HERE, workload, seed, work)
                theirs = answers(other, workload, seed, work)
                bad = sorted(name for name in ours.keys() | theirs.keys()
                             if ours.get(name) != theirs.get(name))
                for name in bad:
                    print(f"differs: {workload} seed {seed} {name}")
                print(f"{workload} seed {seed}: {len(ours)} jobs, {len(bad)} differ")
                differ += len(bad)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
