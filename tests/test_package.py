"""The package surface and start-up: the public names, and the modules that
``import detlaw.cli`` and one command load.

The start-up checks run in a fresh interpreter with PYTHONPATH=src, since
this test process has loaded every module long before.  ``type(module)``
tells a module whose code has not run (importlib's lazy module class) from a
loaded one (types.ModuleType) without loading it.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import detlaw

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# The 62 public names of detlaw, by the module that defines them.
PUBLIC = {
    "algebras": ["FinAlgebra", "GroupAlgebra", "Ideal", "group_algebra", "quotient"],
    "cohomology": ["Ext1Space", "assemble_extension", "ext1", "ext_representatives",
                   "fiber_stratify"],
    "fields": ["FieldDesc", "embed_code", "embedding_table", "make_field"],
    "gma": ["AdaptedScheme", "GmaData", "adapted_points", "adapted_scheme", "canonical_det",
            "gma_from_characters", "gma_full", "torus_orbits", "verify_gma"],
    "groups": ["FiniteGroup", "cyclic", "dihedral", "direct_product",
               "semidirect_cyclic_squared", "symmetric", "with_inertia"],
    "linalg": ["Mat"],
    "moduli": ["degeneration_lands_in_closed_orbit", "degeneration_limit",
               "invariants_separate_laws", "orbit_partition", "psi_fiber",
               "word_invariant_vector", "word_invariants"],
    "ordinary": ["OrdinaryInstance", "certify_points", "is_ordinary", "ordinary_ideal"],
    "poly": ["MPoly"],
    "pseudo": ["PseudoRep", "ch_ideal", "ch_quotient", "det_law", "is_cayley_hamilton",
               "kernel", "matrix_algebra", "nilpotency_index", "split_search",
               "tautological_rep"],
    "reps": ["Representation", "characters", "conjugate_rep", "direct_sum", "enumerate_reps",
             "irreducible_reps", "isomorphic", "semisimplify", "trivial_rep"],
}


def _fresh(code):
    """The JSON that code prints last, run in a new interpreter."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_public_names_are_pinned_and_served_from_their_modules():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 62
    assert ({m: sorted(ns) for m, ns in detlaw._EXPORTS.items()}
            == {m: sorted(ns) for m, ns in PUBLIC.items()})
    assert sorted(detlaw.__all__) == sorted(names)
    assert set(names) <= set(dir(detlaw))
    for module, listed in PUBLIC.items():
        mod = importlib.import_module(f"detlaw.{module}")
        for name in listed:
            obj = getattr(detlaw, name)
            assert obj is getattr(mod, name)
            assert obj.__module__ == mod.__name__, name


def test_import_of_the_cli_runs_no_domain_module():
    # argv is read by a loop over one flag table; argparse's import alone
    # took longer, and getopt's about 0.7 ms with gettext
    loaded = _fresh(
        "import json, sys, types, detlaw, detlaw.cli\n"
        "print(json.dumps({m: type(sys.modules[f'detlaw.{m}']) is types.ModuleType\n"
        "                  for m in detlaw._LAZY}\n"
        "                 | {m: m in sys.modules for m in ('argparse', 'getopt')}))")
    assert sorted(loaded) == sorted([*detlaw._LAZY, "argparse", "getopt"])
    assert not any(loaded.values()), loaded


def test_every_traced_function_resolves_through_sys_modules():
    # perfbench/tracer.py looks each traced function up in sys.modules
    # right after import detlaw.cli, and patches pseudo._kernel_member, the
    # one name it reads outside layers.json
    found = _fresh(
        "import json, sys, detlaw.cli\n"
        "layers = json.load(open('perfbench/layers.json'))['layers']\n"
        "found = {}\n"
        "names = [f for layer in layers for f in layer['functions']]\n"
        "for name in names + ['pseudo._kernel_member']:\n"
        "    mod_name, *path = name.split('.')\n"
        "    owner = sys.modules[f'detlaw.{mod_name}']\n"
        "    for part in path:\n"
        "        owner = getattr(owner, part)\n"
        "    found[name] = callable(owner)\n"
        "print(json.dumps(found))")
    assert found and all(found.values()), found


def test_enumerate_reps_loads_no_law_or_gma_module():
    inst = os.path.join("tests", "instances", "c3_f7.json")
    loaded = _fresh(
        "import contextlib, io, json, sys, types\n"
        "from detlaw.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['enumerate-reps', {inst!r}, '--d', '2']) == 0\n"
        "print(json.dumps(sorted(k for k, m in sys.modules.items()\n"
        "                        if k.startswith('detlaw.') and type(m) is types.ModuleType)))")
    assert "detlaw.reps" in loaded
    for module in ("algebras", "poly", "pseudo", "moduli", "gma", "cohomology", "ordinary"):
        assert f"detlaw.{module}" not in loaded


@pytest.mark.parametrize("argv", [
    ["ext1", "c3_f3.json", "--v1", "triv", "--v2", "triv"],
    ["stratify", "s3_f3.json", "--v1", "c1", "--v2", "triv"],
], ids=["ext1", "stratify"])
def test_ext1_and_stratify_load_no_law_module(argv):
    # cohomology reaches moduli and pseudo through the module, and only
    # fiber_stratify with an orbit report calls them; reps imports no poly
    sub, name, *flags = argv
    inst = os.path.join("tests", "instances", name)
    loaded = _fresh(
        "import contextlib, io, json, sys, types\n"
        "from detlaw.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main([{sub!r}, {inst!r}, *{flags!r}]) == 0\n"
        "print(json.dumps(sorted(k for k, m in sys.modules.items()\n"
        "                        if k.startswith('detlaw.') and type(m) is types.ModuleType)))")
    assert "detlaw.cohomology" in loaded
    for module in ("algebras", "poly", "pseudo", "moduli", "gma", "ordinary"):
        assert f"detlaw.{module}" not in loaded
