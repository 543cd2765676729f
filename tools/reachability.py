"""``python tools/reachability.py`` runs every command of ``reachability_entry_points.txt``
under a ``sys.setprofile`` recorder (``sitecustomize.py`` starts it in each process, forked
workers included) and fails unless the ``src/repro`` functions that no command called are
exactly the ``repro/module.py::Qual.name  tag`` lines of ``reachability_allow.txt``.  A listed
function that is called after all must leave the list, so the list only shrinks.
"""
import ast, atexit, glob, os, shlex, subprocess, sys, tempfile, threading

TOOLS = os.path.dirname(os.path.realpath(__file__))
ROOT, SRC = os.path.dirname(TOOLS), os.path.join(os.path.dirname(TOOLS), "src")
TAGS = ("abstract", "documented", "error-path", "reserved:item-")  # + ROADMAP item
MAX_ALLOWED = 14


def _lines(name):
    with open(os.path.join(TOOLS, name)) as fh:
        return [line for line in fh if line.strip() and line[0] != "#"]


def allow_list():
    return [tuple(line.split()) for line in _lines("reachability_allow.txt")]


def install(out_dir):
    """Record every called code object; write them out at any exit."""
    seen = {}
    def hook(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code
    def flush():
        sys.setprofile(None)
        with open(os.path.join(out_dir, f"{os.getpid()}.reach"), "a") as fh:
            fh.writelines(f"{c.co_filename}:{c.co_firstlineno}\n" for c in list(seen.values()))
    real_exit = os._exit  # forked workers leave through it, past atexit
    os._exit = lambda status: (flush(), real_exit(status))
    atexit.register(flush)
    threading.setprofile(hook)
    sys.setprofile(hook)


def functions(src=SRC):
    """``{(real path, first line): "repro/module.py::Qual.name"}`` of every def."""
    found = {}
    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{os.path.relpath(path, src)}::{prefix}{child.name}"
            visit(child, path, f"{prefix}{child.name}." if hasattr(child, "name") else prefix)
    for path in glob.glob(os.path.join(os.path.realpath(src), "**", "*.py"), recursive=True):
        with open(path) as fh:
            visit(ast.parse(fh.read()), path, "")
    return found


def main():
    reached, env = set(), dict(os.environ, PYTHONPATH=os.pathsep.join([TOOLS, SRC]))
    with tempfile.TemporaryDirectory() as tmp:
        for line in _lines("reachability_entry_points.txt"):
            print("$", line.strip(), flush=True)
            argv = [hit for part in shlex.split(line.format(tmp=tmp)) for hit in
                    (sorted(glob.glob(part, root_dir=ROOT)) if "*" in part else
                     [sys.executable if part == "python" else part])]
            subprocess.run(argv, cwd=ROOT, env=dict(env, REPRO_REACH_DIR=tmp), check=True,
                           stdout=subprocess.DEVNULL)
        for path in glob.glob(os.path.join(tmp, "*.reach")):
            with open(path) as fh:
                reached.update((os.path.realpath(f), int(n)) for f, n in
                               (line.rsplit(":", 1) for line in fh))
    every, listed = functions(), {entry[0] for entry in allow_list()}
    unreached = {name for key, name in every.items() if key not in reached}
    for sign, names in (("unreached, not listed:", unreached - listed),
                        ("listed, now reached:", listed - unreached)):
        print("".join(f"{sign} {name}\n" for name in sorted(names)), end="")
    print(f"{len(unreached)} of {len(every)} functions unreached, {len(listed)} listed")
    return int(unreached != listed)


if __name__ == "__main__":
    sys.exit(main())
