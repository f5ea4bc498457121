"""In-memory span tracing of hnbundles, installed from outside the package.

``Tracer.install`` rebinds every public function of every hnbundles
module, at every module that binds it (``canon.weyl_orbit`` and
``rootsys.weyl_orbit`` alike), to a wrapper that records one span per
call: name, start, end, parent span and op id.  Spans live in flat
arrays until the run ends.  Microsecond leaves are left unwrapped, since
the wrapper would cost more than they do.
"""

import gzip
import sys
import time
from array import array

# (module, function) pairs not traced; their time counts toward the
# caller's self time.  The rootsys ones are too small to trace;
# cli.build_parser is argparse set-up that run_command pays on every
# call, so it belongs in run_command's self time.
LEAVES = {("rootsys", name) for name in (
    "evaluate", "is_root", "simple_roots", "reflect", "coroot",
    "positive_roots", "all_roots", "is_dominant", "root_name")}
LEAVES.add(("cli", "build_parser"))

# Functions whose spans also record the size of their result.
SIZED = {"rootsys.weyl_orbit"}


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(start, end, parent):
    """Per-span self time: its duration minus its direct children's."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Tracer:
    """Spans in flat arrays, one entry per traced call; `active` gates
    recording, so checks run between ops are not traced."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.bindings = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span of the given name."""
        return self.wrap(name, fn)(*args)

    def wrap(self, name, fn):
        nid = self._name_id(name)
        sized = name in SIZED
        start, end, stack = self.start, self.end, self.stack
        names, parent, op, size = self.name, self.parent, self.op, self.size
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            size.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sized:
                size[idx] = len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package="hnbundles"):
        """Rebind every traced function at every module binding of it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        wrappers = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                home = getattr(fn, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(fn, type)
                        or not callable(fn) or not home.startswith(package + ".")):
                    continue
                layer = home.rsplit(".", 1)[1]
                if (layer, fn.__name__) in LEAVES:
                    continue
                key = (layer, fn.__name__)
                if key not in wrappers:
                    wrappers[key] = self.wrap(f"{layer}.{fn.__name__}", fn)
                self.bindings.append((mod, attr, fn))
                setattr(mod, attr, wrappers[key])

    def uninstall(self):
        for mod, attr, fn in self.bindings:
            setattr(mod, attr, fn)
        self.bindings = []
        self.active = False

    def __len__(self):
        return len(self.start)

    def write(self, path):
        """Write every span as a gzipped TSV line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")

    def summary(self, op_scale=None):
        """Per-name call count, self ns and result-size total.  Self times
        of op n are multiplied by op_scale[n] when given."""
        own = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        selfns = [0] * len(self.names)
        sizes = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            selfns[nid] += own[i] * (op_scale[self.op[i]] if op_scale else 1)
            sizes[nid] += self.size[i]
        return {n: (calls[i], selfns[i], sizes[i])
                for i, n in enumerate(self.names)}

    def children_of(self, parent_name, child_name):
        """Spans of child_name whose parent span is parent_name."""
        pid, cid = self.name_ids.get(parent_name), self.name_ids.get(child_name)
        return [i for i, nid in enumerate(self.name)
                if nid == cid and self.parent[i] >= 0
                and self.name[self.parent[i]] == pid]
