import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# scripts/seeded_digest.py --quick: the first ten lines on the commit before
# the oracle kept one generator per instance, the offline-solver lines on the
# commit before peeling_trace re-summed only the changed stars; the two
# dslin lines, which now hash the stop margins too, were re-recorded when
# R' became sqrt(max_a |F_a|) * R and the stop test's lhs the unclipped
# ridge estimate (incumbents and queries unchanged); the two family lines
# on the commit before the arm family's rank test was batched; the m + 800
# dslin line, the benchmark's DS-Lin setting, on the commit before arm
# queries went through index arrays and the per-round solve through the
# solver's unchecked core
QUICK_DIGESTS = """\
dssr/karate/gaussian-per-edge/seed0 b2fa851701b675289ee7c1b4a18b355034b82bff2db24ad277c654742b202b8f
dssr/karate/none/seed0 a50181fa5f4bc4e2b88346c9fefc13e85a37c29570d1aee06d4e802d431ff4bd
dssr/lesmis/gaussian-per-edge/seed0 16e9797d2d650e00668a86c97bdf1b720d21866581ede10b07214649241d3db1
dssr/lesmis/none/seed0 01d1eb5ffc593b800e5473aa1b4a0e881ff26036c364d353dbbe03d5574a503b
dssr/polbooks/gaussian-per-edge/seed0 8775ec2f2f3345d51e577eb1c8306eccddb093899c0b027971a068f07717f60d
dssr/polbooks/none/seed0 4dbfeb15a0deebc5a0b95f2c011ca9871dbaf5eebc0b47eee3b6aa902849542d
dslin-conservative/karate/gaussian-per-edge/seed0 bdd50e223a86b2aa49118a1b51d53add1ba0c386f9d18b67cf5fd04f6ed69d64
dslin-exact-second-best/karate/gaussian-per-edge/seed0 b43ca25ff5b6b1c065b8a14d2ca5fe27863e7d45dc4e14771883f48ee6561ca3
dslin-conservative/karate/gaussian-per-edge/m+800/seed0 d292840d91eb3b04b789ec3f934d3474097079667729ce2f5a443575d1396f55
naive/karate/gaussian-per-edge/seed0 c0af627d3040b6b88e88ee2ba527ee3c570189403c356417836c8def3c042d9e
r-oracle/karate/gaussian-per-edge/seed0 1b73bb29965e6be3dc0946e5c54f9fbf308a6dbe007c3cd433624dbac069abd6
exact/karate 9291ad55a69a4c4b8cd5fe44c1f221ea25cbfa4f8de9964a83797163cae91d89
second-best/karate 5afa9cff2ccd42bd8743555c08b4d33ccf86532635b8246b4f56bfbe1ef6201c
g-oracle/karate 739b2f5b5702a26b274542bad75fc1580dd7f4c3179b98052acc6c1d9d936901
exact/lesmis 958a07870a2f9148a35ca8bcdd9f60e7b2da3dec826ab1fae130c471ae88e55c
second-best/lesmis 22dd7315ec2dede1d924d71ed9a006fda16eea03ba2f05ff32214debee85a283
g-oracle/lesmis e50bff8f27fc8c90ded46601df15dd7a7d0b649fdf0d93d7ab01e248ef2db96c
exact/polbooks 97c369f209a46520e0f0d7b6c0df1b30d1cc0d0321de8d92583bac49f61969dd
second-best/polbooks 6bfef8ab0aeb6933ac7ff59479a66ff43174426eb44fae32d426cc05851eb242
g-oracle/polbooks d6e64d2a7408e9ad9259d5c2dde1f7196973feb00d7c0da7ec4fe2736e1ac693
family/lesmis 783e03836f8c709350e03df24d49ee6f1e9052ae2bbe1b4d2e7d78e52a815ded
family/polbooks d93e7f2265d7a123c4847d81d3f9ebbe9fef02c9cfb11457223017018d274bfc
"""


def test_quick_digests_are_pinned():
    src = os.path.abspath(os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "seeded_digest.py"), "--quick"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert os.path.join(src, "densebandits") in proc.stderr
    assert proc.stdout == QUICK_DIGESTS
