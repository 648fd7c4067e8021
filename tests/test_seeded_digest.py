import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# scripts/seeded_digest.py --quick on the commit before the oracle kept one
# generator per instance
QUICK_DIGESTS = """\
dssr/karate/gaussian-per-edge/seed0 b2fa851701b675289ee7c1b4a18b355034b82bff2db24ad277c654742b202b8f
dssr/karate/none/seed0 a50181fa5f4bc4e2b88346c9fefc13e85a37c29570d1aee06d4e802d431ff4bd
dssr/lesmis/gaussian-per-edge/seed0 16e9797d2d650e00668a86c97bdf1b720d21866581ede10b07214649241d3db1
dssr/lesmis/none/seed0 01d1eb5ffc593b800e5473aa1b4a0e881ff26036c364d353dbbe03d5574a503b
dssr/polbooks/gaussian-per-edge/seed0 8775ec2f2f3345d51e577eb1c8306eccddb093899c0b027971a068f07717f60d
dssr/polbooks/none/seed0 4dbfeb15a0deebc5a0b95f2c011ca9871dbaf5eebc0b47eee3b6aa902849542d
dslin-conservative/karate/gaussian-per-edge/seed0 51e4a95659bb4736bc58d8861a357198cec33524ea498fc125f30d379c959556
dslin-exact-second-best/karate/gaussian-per-edge/seed0 51e4a95659bb4736bc58d8861a357198cec33524ea498fc125f30d379c959556
naive/karate/gaussian-per-edge/seed0 c0af627d3040b6b88e88ee2ba527ee3c570189403c356417836c8def3c042d9e
r-oracle/karate/gaussian-per-edge/seed0 1b73bb29965e6be3dc0946e5c54f9fbf308a6dbe007c3cd433624dbac069abd6
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
