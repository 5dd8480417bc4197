"""Pinned whole-run outputs at bounds the other tests do not reach.

Byte-identical output is the compatibility contract, so each row pins one
command-line run: the sha256 of its stdout, its exit code, the text piped
to stdin (or None) and its argv.  A row runs as ``python -m anick.cli``
in a fresh process from the repository root, as a user would run it, and
its stdin gets the text plus one newline, as ``echo`` pipes it.  A failing
run is pinned with the digest of empty stdout.  A pinned output is
re-recorded only with a CHANGES.md line that names the row.
"""

import hashlib
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EMPTY = hashlib.sha256(b"").hexdigest()

HEAD = "algebra h; kind noncommutative; generators x y; order deglex x > y;"
# inhomogeneous, completes outright and is certified
H = f"{HEAD} relations x*y*x = y; y*y = x;"
# leading coefficients 2 and 5 that do not divide the other coefficients
Q = ("algebra q; kind noncommutative; generators x y; order deglex x > y; "
     "relations 2*x^2 - 3*x*y; 5*y*x*y + 2*x*y*x - y^3;")
# weighted, with a generator x heavier than the first degree bound
W = ("algebra w; kind noncommutative; generators x:5 y z:2; "
     "order deglex x > y > z; relations y*y*y - z*y; z*z - y*z*y;")

ROWS = [
    # Whole hilbert JSON: the series inverse and the rational fit run in
    # ints, and the digests were recorded while both still ran in
    # Fractions, the fit through a dense solve.  x2xy to degree 64 has
    # leading words of up to 64 letters, so its tail graph tests edges of
    # up to 63 letters; its digest was recorded while each edge r -> t was
    # still tested by matching r.t against every tip, before the automaton
    # edge test.
    ("7f4181c8d3ead043880d46a7fd213680acab5941a86b47eece9b355377ef1293", 0, None,
     "hilbert --bn 4 --max-degree 20 --format json"),
    ("181a6ae39b181fde80fe0caef1fab87908a76ae6502d7f5f6c42e1afb6ce6768", 0, None,
     "hilbert samples/x2y2.alg --max-degree 40 --format json"),
    ("beb4d91eb3e64ed6e89ca8b8a3242d089a7046fed28f04aedcc2f700473fcd64", 0, None,
     "hilbert samples/xyzx.alg --max-degree 20 --format json"),
    ("86513783449894f8f109fc67cbbd4f402a10aa40a8917a3e4eafbd78b71c9574", 0, None,
     "hilbert samples/x2xy.alg --max-degree 64 --format json"),
    # Completion: the gb digests were recorded before completion was
    # rewritten to build no intermediate polynomials.
    ("0991137b60f1cb9909f99fdb4f87341d0bec0e24b1d9909ddf3a0721a8456e81", 0, None,
     "gb samples/x2xy.alg --max-degree 40 --format json"),
    ("2a8ded17b611e0a21d7355fc645291868cc375b35fe6ea89ce073c5d274bc5aa", 0, None,
     "gb samples/xyzx.alg --max-degree 30 --format json"),
    ("092f645710b8e7ed5a6b6ade0c83ba8eede22f7964cbc9e0a6d08984f6d7a55e", 0, None,
     "gb --bn 24 --max-degree 10 --format json"),
    # B60's overlaps are mostly of two monomials, which completion does not
    # queue, and this nf reduces words of up to 40 letters against x2xy's
    # x*y^n*x tips.  Both digests were recorded while every such overlap
    # was queued and the tips were looked up one length at a time.
    ("5971d8fe2117e8698624ddc246b1ed1bb118d1c1e95c7cd00d98b88df02685d8", 0, None,
     "gb --bn 60 --max-degree 8 --format json"),
    ("1057ab475d07e269c75eead3e184417133263b8414277d7c5d1e7f66c87616c3", 0, None,
     "nf samples/x2xy.alg x*y^30*x*y^3*x --max-degree 40 --format json"),
    # The inhomogeneous H runs find_obstructions through the certificate;
    # its gb digest was recorded before overlaps were found by prefix and
    # suffix lookup.  hilbert, nf and chains read it through the basis's
    # tips.
    ("3c60fb206e8cd9292bb401b2e4183d8b8d3959421bf58992dd1d94ff34e52d95", 0, H,
     "gb - --format json"),
    ("81355b46646f38dbd60ad94e8add07cba589fbb739962c281ce0ef1ae3d7a729", 0, H,
     "hilbert - --format json"),
    ("a2c82f5f1f4bd9a21b5d60897b5180fa496473707b85e87444d03c4b43bd6b26", 0, H,
     "nf - x*y*x*y*y --format json"),
    ("0a91d77882bd8812fa186ca3130684c1431e535f613d40ee08e1cc873b44aa89", 0, H,
     "chains - --format json"),
    # inhomogeneous too, with an overlap past degree 4, so nothing is
    # certified
    (EMPTY, 3, f"{HEAD} relations y*x*y = 1;",
     "gb - --max-degree 4 --format json"),
    # x = 1 puts the constant 1 in the ideal: the relations generate the
    # whole algebra, an input error
    (EMPTY, 2, f"{HEAD} relations x - 1; x*x - 2;",
     "gb - --format json"),
    # Q's completion leaves its int path for Fractions; its digest was
    # recorded while completion still ran on Fractions only.
    ("f63d087f02a1af2d078a234c47c28643ed009024145b416e1bbdbc861997c1aa", 0, Q,
     "gb - --max-degree 12 --format json"),
    # The same basis keeps Fraction coefficients in its rules, so these runs
    # read them through nf, the Hilbert series and the resolution.  The
    # digests were recorded while the resolution still converted the basis
    # back to ints itself.
    ("7fe3c84eebc3f15ab77a89332c8ee3383747bd677c104f20456cfb40d4c15c54", 0, Q,
     "nf - y*x*x*y+x^3 --max-degree 12 --format json"),
    ("ecfdafe1226d0ea4eff7c72a4d485cc9304774958b3a4653c5c77356022c14d7", 0, Q,
     "hilbert - --max-degree 12 --format json"),
    ("6cd0f685be9746631947dbc4e65187ba8f3ad6eb8f8b4f6c7daf65e0fa9481d1", 0, Q,
     "anick - --max-level 3 --max-degree 8 --format json"),
    # Resolutions.  Every row here but the last was recorded before the
    # splitting read a pair's chain off the tail graph's edges.  These three
    # were recorded before the splitting was memoized on basis pairs.
    ("ace833538ca06694af2487926f04026ac8e91df3d853783d98ebc6d415898ff6", 0, None,
     "tor samples/x2xy.alg --max-level 5 --max-degree 14 --format json"),
    ("64a34adc174c4c03be92298244b7f7448b32949d67bf2dfd22fccec0e3f9a2c2", 0, None,
     "anick samples/x2xy.alg --max-level 4 --max-degree 14 --format json"),
    ("588454cd201889fc83b5b452bf5fc67ffb27e411f246eb34bd8df088d3cf6bec", 0, None,
     "anick samples/xyzx.alg --max-level 5 --max-degree 13 --format json"),
    # These five were recorded while the resolution still built its
    # normal-word table twice for anick and once, unread, for tor.  In the
    # three anick runs the rank budget binds or the Euler horizon lies below
    # the built degree (Euler degree 6, 8 and 5; exactness degree 3, 4 and
    # 12).
    ("301f90aa883478e9ab34588925fb2bd9911a521b3fbb65a85196f144efd8514b", 0, None,
     "anick --bn 2 --max-level 4 --max-degree 10 --format json"),
    ("ab04602f5887037a3c6b266fabbff8e930777875bc877b93a39934dd23280008", 0, None,
     "anick --bn 1 --max-level 5 --max-degree 12 --format json"),
    ("30383fb954cb58bc25ee6d6af7d00902d520621014fa7a241a320b1718d2fe93", 0, None,
     "anick samples/x2y2.alg --max-level 4 --max-degree 12 --format json"),
    ("0a1bcbae01cd1df31c4f78d608e583ee28e31cc7a2dfddef93d8e4a5bb11d961", 0, None,
     "tor --bn 3 --max-level 4 --max-degree 10 --format json"),
    ("2185f4099503ccea83ff0d6f606515e7716d3287d227e875f64edbd8dfbcee40", 0, None,
     "tor --bn 2 --max-level 5 --max-degree 9 --format json"),
    ("8020f025cced6ee34a378ffb41f85b712b627498a2c9a3c22f21d9da55efd469", 0, None,
     "anick samples/x2xy.alg --max-level 5 --max-degree 14 --format json"),
    ("520307585038d6efe569858b53cc54396315774ca4624675277cf46e72465140", 0, None,
     "anick samples/xyzx.alg --max-level 4 --max-degree 12 --format json"),
    # These four were recorded while the constructor still audited every
    # splitting it built, so "splitting.checked" there counted split calls.
    ("d4d27a02c570a16d0039cc56317fee58846f29a42d4ace671dea44f66901a63d", 0, None,
     "anick --bn 3 --max-level 4 --max-degree 10 --format json"),
    ("ee73f934e45be017efc6a44f108c11c13268007921146b8d33b6a4191643d377", 0, None,
     "tor samples/xyzx.alg --max-level 4 --max-degree 12 --format json"),
    # 21,780 chains built to level 6, recorded while the splitting still
    # scanned every chain word length of a level for a pair's chain and Tor
    # ranked every block on its columns
    ("a77aa6ec42df868f7ef03125269d43bf5cf38ec592d929119aaa6d7414263120", 0, None,
     "tor samples/x2xy.alg --max-level 5 --max-degree 18 --format json"),
    # anick's 117,045 matrix entries on the same chains (9.8 MB), recorded
    # while anick still grouped each column by row and sorted each row's
    # terms by heap_key, before one sort per column, and while the
    # splitting walked per-level child tries
    ("ab058f7e0fe197d25dbf368684ba765172deb264c85effb37d7c27e31b4db077", 0, None,
     "anick samples/x2xy.alg --max-level 6 --max-degree 18 --format json"),
    # tor on the same bounds (built to level 7), recorded while Tor fed each
    # block's vectors to the rank in first-seen order, which fills in on its
    # largest blocks
    ("016f1c4962101310dccca9cb9cbea440e28ed3373f44b774c85440ea3ae076f3", 0, None,
     "tor samples/x2xy.alg --max-level 6 --max-degree 18 --format json"),
    # Chain words: the tail graph reads the rests that may follow a tail off
    # the tip matcher's prefix index; these digests were recorded while the
    # graph still kept an index of its own.  The text digest of xyzx was
    # recorded while every chain word was formatted whole, before a word's
    # text was joined from its parent's and its tail's.
    ("cf61135c50c2c3a2a0f411157b33b903cb9d8f67f7a035fd7f1b3ef98d62170e", 0, None,
     "chains samples/xyzx.alg --max-level 6 --max-degree 14 --format json"),
    ("bbe91c48e689c27edf48986d9f40951c84ec325b949b71164f2d3f4e4886b1e2", 0, None,
     "chains samples/xyzx.alg --max-level 6 --max-degree 14 --format text"),
    ("a26e3457b3ab90809a6268348a89648c0a6e1f09ef50ad1aa4c15380b9e43bcd", 0, None,
     "chains samples/x2xy.alg --max-level 8 --max-degree 16 --format json"),
    ("d833ab8f89b492b736c487dad725052cc67347878169790c6421d41dfe3a30c1", 0, None,
     "chains --bn 3 --max-level 5 --max-degree 12 --format json"),
    # x2xy at level 6 and degree 24 has leading words and tails of up to 24
    # letters; its digest was recorded while each edge r -> t was still
    # tested by matching r.t against every tip, before the automaton edge
    # test.
    ("1c949742bce54866908cfb92194c7a249835fef53b571a646778f4a095f03b49", 0, None,
     "chains samples/x2xy.alg --max-level 6 --max-degree 24 --format json"),
    # W past the degree bound: chains are paths from the empty tail, and the
    # chain-inverse series counts them without words, so a generator past
    # the bound must drop out of level 0, of the counts and of the series
    # alike.  The digests were recorded while level 0 was built apart from
    # the other levels and the chains were counted level by level.
    ("9f5920a367d91601381236ec824e2467bfed7824312ab4352440c1d8057037cb", 0, W,
     "chains --max-level 4 - --max-degree 4 --format json"),
    ("e9645bdccf5edae627d3b1a61924039377411db7844adb19c02d5b58f01d3da3", 0, W,
     "hilbert - --max-degree 4 --format json"),
    ("83eb0336f046836f97d9620195d42035a51b390cb85fc82e3b0fd37780f55159", 0, W,
     "anick - --max-degree 4 --format json"),
    ("f931508812819e9cf14c4486f30f1f0e937229eef70200807be8804f1fe1318c", 0, W,
     "tor - --max-degree 4 --format json"),
    ("9eba9c5c5260ab856b3d3e9c30850d5d97959714aa2ecf37f79c85bbb3006793", 0, W,
     "chains --max-level 4 - --max-degree 9 --format json"),
    ("fb5db71b78cb5acb46edb71badd5f91c00da8117bc540f90aa3b6cb19422357b", 0, W,
     "hilbert - --max-degree 9 --format json"),
    ("02a4c4ca261abab4de5dba7bf2c907ef9e030d834dfe708e56258eb767acb8fe", 0, W,
     "anick - --max-degree 9 --format json"),
    ("56bbdc1c09968590e324364964733fc7e03c7663616743a1a12588a56ba91bb2", 0, W,
     "tor - --max-degree 9 --format json"),
]


@pytest.mark.parametrize(
    "digest, code, stdin, argv", ROWS,
    ids=[argv if stdin is None else f"{argv} < {stdin.split('relations ')[1]}"
         for _, _, stdin, argv in ROWS])
def test_pinned_output(digest, code, stdin, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "anick.cli", *shlex.split(argv)], cwd=ROOT,
        input=None if stdin is None else f"{stdin}\n".encode(),
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == code, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
