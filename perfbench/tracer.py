"""Outside-in tracer for the bhbounds modules.

``install()`` wraps every public function of the traced modules and
rebinds each wrapper wherever the original is bound: in its defining
module, in the ``bhbounds`` package namespace and in every module that
imported it by name (``bhbounds.verify`` binds its own ``sup_norm_exact``,
``bhbounds.forms`` binds ``bh_exponent``, and so on).  Construction of a
``MultilinearForm`` is traced through its ``__post_init__``.  Nothing in
the package changes on disk; ``Tracer.uninstall()`` restores every binding.

Spans are kept in memory as ``[name, parent, start, end, note]`` lists,
where ``parent`` is the index of the enclosing span (-1 at top level) and
``note`` holds the few facts a metric needs from the call (the form's
shape, a report's trial count).  ``aggregate`` turns a span list into the
per-layer metrics.

Run as a script, ``python perfbench/tracer.py SPANS_FILE ARG...`` installs
the wrappers, calls ``bhbounds.cli.main(ARG...)``, writes the spans to
SPANS_FILE as JSON and exits with ``main``'s return code.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from time import perf_counter

TRACED_MODULES = ("cli", "verify", "forms", "constants", "khinchine", "exponents")

# Marker attribute set on every wrapper, so a run can prove it carries none.
MARKER = "__perfbench_span__"


def _shape_note(args, kwargs, result):
    form = args[0] if args else kwargs["form"]
    return {"m": form.m, "N": form.N}


def _trials_note(args, kwargs, result):
    return {"trials": result.trials}


def _proposals_note(args, kwargs, result):
    return {"proposals": result.iterations}


NOTES = {
    "forms.sup_norm_exact": _shape_note,
    "verify.run_bh_trials": _trials_note,
    "verify.check_multiple_summing": _trials_note,
    "verify.run_khinchine_suite": _trials_note,
    "verify.run_kcc_suite": _trials_note,
    "verify.run_blei_suite": _trials_note,
    "verify.run_tensor_suite": _trials_note,
    "verify.search_extremal": _proposals_note,
}


def _public_functions(short, module):
    if short == "cli":
        names = ["main"]
    else:
        names = module.__all__
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield name, obj


def _bhbounds_modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == "bhbounds" or name.startswith("bhbounds."))]


class Tracer:
    """Wrappers installed over the bhbounds bindings, and the spans they record."""

    def __init__(self):
        self.spans = []
        self._current = -1
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            parent = self._current
            span = [name, parent, 0.0, 0.0, None]
            self._current = len(spans)
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._current = parent
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARKER, name)
        return wrapper

    def install(self):
        for short in TRACED_MODULES:
            importlib.import_module(f"bhbounds.{short}")
        modules = _bhbounds_modules()
        for short in TRACED_MODULES:
            defining = sys.modules[f"bhbounds.{short}"]
            for attr, fn in list(_public_functions(short, defining)):
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for mod in modules:
                    for bound_name, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, bound_name, fn))
                            setattr(mod, bound_name, wrapper)
        form_cls = sys.modules["bhbounds.forms"].MultilinearForm
        post_init = form_cls.__dict__["__post_init__"]
        self._restore.append((form_cls, "__post_init__", post_init))
        form_cls.__post_init__ = self._wrap("forms.MultilinearForm", post_init)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self):
        """The spans recorded so far, removed from the tracer.

        Call it only between top-level calls: span indices restart at 0.
        """
        spans = list(self.spans)
        del self.spans[:]
        return spans


def wrapped_bindings():
    """(module, name) of every traced wrapper still bound in bhbounds."""
    found = []
    for mod in _bhbounds_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARKER):
                found.append((mod.__name__, attr))
        form_cls = getattr(mod, "MultilinearForm", None)
        if form_cls is not None and hasattr(form_cls.__post_init__, MARKER):
            found.append((mod.__name__, "MultilinearForm.__post_init__"))
    return found


def patterns(m, n):
    """Nominal sign patterns of the exact norm: 2^((m-1)N)."""
    return 1 << ((m - 1) * n)


def aggregate(spans):
    """Per-layer numbers from one span list.

    For each traced name: ``calls``; ``busy_s``, the summed duration of
    its outermost spans (a recursive call is not counted twice); and
    ``self_s``, the summed duration minus the time covered by direct
    child spans.  The exact norm also gets per-shape busy time and the
    nominal pattern count; the suites give ``verify.trials`` and the
    search gives ``search.proposals``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[3] - span[2]
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, parent, start, end, note) in enumerate(spans):
        duration = end - start
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", duration - child_time[i])
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            add(f"{name}.busy_s", duration)
        if note is None:
            continue
        if "m" in note:
            add(f"{name}.m{note['m']}n{note['N']}.busy_s", duration)
            add(f"{name}.patterns", patterns(note["m"], note["N"]))
        if "trials" in note:
            add("verify.trials", note["trials"])
        if "proposals" in note:
            add("search.proposals", note["proposals"])
    busy = out.get("forms.sup_norm_exact.busy_s", 0.0)
    if busy > 0:
        out["forms.sup_norm_exact.patterns_per_s"] = (
            out["forms.sup_norm_exact.patterns"] / busy
        )
    return out


def _main(argv):
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    import bhbounds.cli

    tracer.install()
    try:
        code = bhbounds.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
