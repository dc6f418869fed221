"""Byte-level guard on ``solve --format json`` and the text commands.

The ``solve`` digests below were recorded with the term-by-term series
inverse, before Newton iteration and then integer forward substitution
replaced it.  The ``examples`` and
``identities`` digests were recorded before those commands were driven
from the claims table in ``closed_forms``.  The ``(47, 96)`` and
``(64, 66)`` digests were recorded while ``build_g`` still multiplied out
every Hauptmodul power at the full budget, as were the largest ``wide``
case ``(96, 98)`` and the ``deep`` cases ``(12, 240)``, ``(2, 360)`` and
``(3, 300)`` of the benchmark (copied from ``perfbench/digests.json``).  The odd-r
``sweep`` cases at order 90, also copied from there, were checked against
the kernels that still ran over every index, before the lattice-2 series
of an odd-r solve ran on their nonzero half only.  The ``(199, 400)``
digest, the largest odd case, was recorded while the quotient kernel
still rescaled every earlier coefficient at each step of the division
``g / S``, before each one stayed over its own denominator.  Any change to the
arithmetic kernels or to the commands must leave every byte of this output
as it is.

The two ``series`` digests pin the seed t0 on both groups through
p^600; they were recorded while each group built t0 as its own eta
quotient, E4*E6/Delta or E4/Delta^(1/2), before both read it off the
Hauptmodul as -theta(t)/E4.

The ``examples`` digests are also checked in a new interpreter, since
``cli`` imports ``closed_forms`` only when ``examples`` runs, and by the
time the in-process checks run, other test modules have imported it.

The ``verify --numeric`` digests pin the floats of the numeric checks:
they were recorded while coefficients were still evaluated through
``complex(Fraction)``, so they also show that evaluating from integer
numerators over one denominator gives the same doubles.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modschwarz
from modschwarz.cli import run

ORDER = 60  # the order of the shared ``solved`` fixture (conftest.py)

DIGESTS = {
    (1, 60): "52c34c0b89f74f06e046179ef76b34b5f008044a105d2d20f4fa627ab222a7d7",
    (2, 60): "c25fc4323810e54ae6f22a6873f4685eec46494a7b6f69a5f16feb2a695208a8",
    (3, 60): "685666a8ede4222938941b6dbec1831ebc0c7af70af825e317c6b6f5cde0aa3f",
    (4, 60): "dedda10410c27eb2f4d703877362a41fac10d59e4d545d7135dad66326399b0d",
    (5, 60): "19b9720d1b172b44dd0ca0aedf2e5f443c27ed493fcb4d4f03f45000ee094c82",
    (6, 60): "95c242d8db9c1a045df2a855db6b663b3e1486bd7e7ff76ad5e1be42227026f3",
    (7, 60): "8030d155649f594b8362b855e9af8ba72b0d6db5148f287681fa7a7ee75912f5",
    (8, 60): "4bbf4b563840f676ecfbdcb76f0e1330d3d73d55a9d0548d35371e983031f92c",
    (9, 60): "3e4b654eb5000d85fd095cf0f8ba5348fefafd30450bc0300c0ebe684e33f423",
    (10, 60): "d44ee56bf1bb89dd2138b8695e421e017775f3b918498cc517b3bfcbb8aab9ad",
    (11, 60): "fe1ced17fb229c53ec1388822466935a35c495a708af310874d1d0f241b9a21a",
    (12, 60): "ca83cd3ca072e16c9bebfb544a83cae29654833f40ecbe16269c3c1e469020d6",
    (2, 120): "1c1ec5553438b035690e3312e0044a24f1de11ce083ea2e6e22c71bd4f305e5f",
    (3, 120): "5c157895b6c72a23dc0c78435783324ecadcda077c91084793129ab4f7c6ee33",
    (47, 96): "eea334013ed8be1d2586c6afb323241d8c2554aa7ad288fed47c3fe9ee890086",
    (64, 66): "8f00f461c24c3dbb82e6212f918ce10899ed97d7bf1f5918ad85b8f5947ca372",
    (96, 98): "fdabcb61d9013c28d609039dd8f0e8401b1b0768619dbaaf7b36da87f06f4eaf",
    (12, 240): "8dfab9276a77e59f268ff56fe8891e49be63f9b9ddc371022c73110bfe7e08ff",
    (2, 360): "32ff26d51e955d45df22bc20aca214c42baa769db2b1b47018f25c73edb547d5",
    (3, 300): "5a03c3bf74c67abfae71d6599a7733be7214ec6446bfb9e3c509bd6f2e2fe188",
    (1, 90): "50201abcfa2fe40bc792703497e942cb1f85d0ca632f8261ff0e3b8f0ed206f2",
    (3, 90): "5ecef8b824ff6135a5940655f0243ffb19585bee70d1ba3409acc686faa57b93",
    (5, 90): "fc8fadee6156308c134865b19004063194cae1b16101d40981aead027b3d71cc",
    (7, 90): "f4156f1cce1d44e04b610ff383d4ceaaa0d9aa7f8f50765e8c7332108d97d833",
    (9, 90): "3ac49ba4026eb8d4bf85726a85f239ca19c364e388c5c573c0659f45c29c6123",
    (11, 90): "b05ee63153900b25df17ceee7be64080c0d384d537e954bbbc97594a3a957254",
    (199, 400): "f5ce721f6bbe519be0bb87576c26a24745720a826485fb4c6bca433faff9126b",
}

TEXT_DIGESTS = {
    ("examples", "--r", "1"): "f4579653cbe85a622e563fee0b9a0a24d8495d700b7740b808bb5c8a7673843f",
    ("examples", "--r", "2"): "068404d008257c844236456dd6960dc2b0c0d41815f8caaf8e730e67abb8d8b6",
    ("examples", "--r", "3"): "736f0ddc4119ae2c8071290e205d8f8f3ce4d5988d6c67acc77df87ad312fa85",
    ("examples", "--r", "4"): "c752838fd2534385795b1f422aaf230d73a33b50f21165d8452cc4c0d7c47d1b",
    ("identities", "--order", "40"): "8bfb8e5461fd8ba92ce2d64f23aba2eb4ae83e7869d586aad09bfdb4f8d30c4d",
    ("series", "t0-full", "--order", "600", "--format", "json"):
        "c6690e4dd0215f07b8f036e9fae70174da9a3712efc9a3c6597e03630caf7a3a",
    ("series", "t0-squares", "--order", "600", "--format", "json"):
        "9e42b4cd059f39363de4271f2d479c761a321d38830df4ffc921fe646d0db130",
    ("verify", "--r", "2", "--order", "60", "--numeric"):
        "777df5df7ff158187b2956e247072d7e55cced2b5a4d81dffb2e215fa2495912",
    ("verify", "--r", "3", "--order", "60", "--numeric"):
        "1ac83d706882198984354a1a2e49f766087d1531e443aa48b173b821b9f5054f",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("r", range(1, 13))
def test_solve_json_digest(r, solved):
    text = json.dumps(solved[r].to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert sha256(text) == DIGESTS[(r, ORDER)]


@pytest.mark.parametrize("r", [2, 3])
def test_cli_solve_json_digest(r):
    out = io.StringIO()
    code = run(["solve", "--r", str(r), "--order", "120", "--format", "json"], out=out)
    assert code == 0
    assert sha256(out.getvalue()) == DIGESTS[(r, 120)]


@pytest.mark.parametrize("r, order", [(47, 96), (64, 66)])
def test_cli_solve_json_digest_high_degree(r, order):
    # deg P = 46 on the squares lattice and 31 on the full one.
    out = io.StringIO()
    argv = ["solve", "--r", str(r), "--order", str(order), "--format", "json"]
    assert run(argv, out=out) == 0
    assert sha256(out.getvalue()) == DIGESTS[(r, order)]


@pytest.mark.parametrize(
    "r, order",
    [(96, 98), (12, 240), (2, 360), (3, 300)] + [(r, 90) for r in range(1, 13, 2)],
)
def test_cli_solve_json_digest_benchmark_cases(r, order):
    out = io.StringIO()
    argv = ["solve", "--r", str(r), "--order", str(order), "--format", "json"]
    assert run(argv, out=out) == 0
    assert sha256(out.getvalue()) == DIGESTS[(r, order)]


def test_cli_solve_json_digest_at_the_largest_odd_r():
    # The common denominator of g / S grows at each of the 402 steps of
    # the nonzero half, to 5582 bits: the quotient kernel's hardest case.
    out = io.StringIO()
    argv = ["solve", "--r", "199", "--order", "400", "--format", "json"]
    assert run(argv, out=out) == 0
    assert sha256(out.getvalue()) == DIGESTS[(199, 400)]


@pytest.mark.parametrize("argv", TEXT_DIGESTS, ids=" ".join)
def test_cli_text_digest(argv):
    out = io.StringIO()
    assert run(list(argv), out=out) == 0
    assert sha256(out.getvalue()) == TEXT_DIGESTS[argv]


@pytest.mark.parametrize("r", ["3", "4"])
def test_examples_digest_in_a_fresh_interpreter(r):
    # Without ``site``, the child imports only this package and its own imports.
    env = dict(os.environ, PYTHONPATH=str(Path(modschwarz.__file__).parent.parent))
    argv = ("examples", "--r", r)
    code = "from modschwarz.cli import main; main()"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == TEXT_DIGESTS[argv]
