"""Every function the benchmark tracer wraps still exists in the package.

`bench/tracer.py` looks its targets up by name, so a rename in `src` breaks
`bench/run.py --trace 1` without any other test failing. The tracer module is
loaded from its file here and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under bench/
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        sys.modules.pop(spec.name, None)
    return module


def test_every_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for t in targets:
        # the same lookups as Tracer.install
        owner = importlib.import_module(t.module)
        cls_name, _, attr = t.attr.rpartition(".")
        if cls_name:
            found = getattr(owner, cls_name, None)
            found = found.__dict__.get(attr) if found is not None else None
        else:
            found = getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{t.module}.{t.attr}")
    assert missing == []


def test_traced_subcommands_keep_their_notes(tmp_path, capsys):
    # the tracer reads arguments by position (`spectrum.sigma_scan` notes
    # the size of args[1], its candidate list), so a signature change shows
    # only when the wrapped functions run
    from sumprod.cli import main

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        codes = [
            tracer.call(main, argv)
            for argv in (
                ["classify", "--poly", "x^2 y + x + y"],
                ["sigma", "--poly", "x^3 + y^3", "--sweep-height", "2"],
                ["incidence", "--poly", "x^3 + x y", "--set", "AP(6,1,1)"],
                ["scan", "--poly", "x^2 + y", "--family", "AP", "--sizes", "8,16", "--out", str(tmp_path)],
            )
        ]
    finally:
        tracer.uninstall()
    assert codes == [0] * 4
    notes = [s.note for s in tracer.spans if s.name == "spectrum.sigma_scan"]
    # the 7 lambdas of the height-2 sweep hold the spectrum (0) of x^3 + y^3,
    # whose one reducible fiber is at 0
    assert notes == [(7, 1)]
