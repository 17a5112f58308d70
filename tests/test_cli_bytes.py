"""CLI byte gate: the README example commands print exactly the recorded bytes.

Each digest is the SHA-256 of one command's stdout, recorded before the
vectorized harmonic core replaced the per-harmonic loops.  A digest only
changes with an intended change of output; a faster implementation of the
same analysis must leave every byte alone.
"""

import hashlib
import json
from importlib import resources

import pytest

from switchbeam.cli import main


def reference_path(name: str) -> str:
    return str(resources.files("switchbeam.reference").joinpath(name))


#: The README examples (output files replaced by stdout) plus 8-path and
#: larger-array variants of the analysis steps.
CASES = {
    "design": ["design", "--theta-deg", "20", "--alpha-db", "-6"],
    "pattern_peakmode": ["pattern", "--alpha-db", "-6", "--normalize", "peakmode",
                         "--harmonics", "1,-3,5,-7"],
    "pattern_inline": ["pattern", "--theta-deg", "20", "--alpha-db", "-6"],
    "pattern_8path": ["pattern", "--elements", "16", "--paths", "8", "--theta-deg", "-35",
                      "--alpha-db", "-3", "--harmonics", "1,-7,9,-15,17",
                      "--theta-step", "0.1"],
    "efficiency_circuit": ["efficiency", "--alpha-db-min", "-10", "--alpha-db-max", "0",
                           "--alpha-db-step", "1",
                           "--circuit", reference_path("circuit_params_200mhz.json")],
    "efficiency_compare": ["efficiency", "--compare", reference_path("harmonic_efficiency.csv"),
                           "--series", "ideal_4path"],
    "qam": ["qam", "--constellation", reference_path("qam16.csv"), "--predistort", "on"],
    "verify": ["verify", "--alpha-db", "-6", "--m-max", "25", "--samples", "16384"],
    "verify_8path_json": ["verify", "--elements", "16", "--paths", "8", "--theta-deg", "-35",
                          "--alpha-db", "-3", "--m-max", "25", "--samples", "4096", "--json"],
    "verify_32x8": ["verify", "--elements", "32", "--paths", "8", "--theta-deg", "41.3",
                    "--alpha-db", "-4.2"],
    "verify_narrow_pulses": ["verify", "--alpha-db", "-30", "--samples", "1000"],
}

DIGESTS = {
    "design": "6ed8bf6d36902f2ea9ca8864fd08a3504351768b75544e545ebdded6f00659c2",
    "efficiency_circuit": "90131f746c4ad9b899446bfddc1dacc4881c98cde1ad248aead57bd1ae404409",
    "efficiency_compare": "bdd87888ae88f0c72e41eabe06d545e3de6e89cd258dd800d8699c4b8c5f6f90",
    "pattern_8path": "267c7d758ea093767bfe0bb0ad5d30160a3226242a0bbda2a592d0fbb5e533b3",
    "pattern_inline": "00d170e3240cc871f1707400c72f49fd4ea77a03fdbf34759caec053caef87cb",
    "pattern_peakmode": "adedd016dd06111a2559cbc5975570f4ed622af6053ae723c9b703e8ca14d6e8",
    "qam": "ec384905459d290efe91cb79c99c362a8fa8fc09bfd23b24fd10d86c3478938d",
    "verify": "6d3b1d254362591c89f52dc200abbe295d4e54c486ca77b033147810cafc9021",
    "verify_8path_json": "a16a2e32a3d18b764331f8e14483149bc191949f10e08e21c9124e3fd9c22c39",
    "verify_32x8": "94b6e3e66cb1bf4e1c63ed3f7f0217af4ab2679849f94fa049bb625106168200",
    "verify_narrow_pulses": "3ee94e4185f1123bc5436fdef6edab2a4112afd4fdc99855fc1fa6ec9c98595b",
}


def stdout_digest(capsys, argv, expected_code=0) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == expected_code, out
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_unchanged(capsys, name):
    assert stdout_digest(capsys, CASES[name]) == DIGESTS[name]


def test_pattern_from_schedule_file_matches_inline_run(capsys, tmp_path):
    schedule = tmp_path / "schedule.json"
    assert main(["design", "--theta-deg", "20", "--alpha-db", "-6", "--out", str(schedule)]) == 0
    digest = stdout_digest(capsys, ["pattern", "--schedule", str(schedule)])
    assert digest == DIGESTS["pattern_inline"]


#: ``pattern --schedule`` of a designed 8-path document with paths removed
#: from two elements, so the pulse table pads ragged path counts.
RAGGED_DIGEST = "9d9d1f3d34fbea6688de4942f4b4399b3684e64d7e1199747d4719b24809b7cf"

#: ``verify --schedule`` of the same ragged document: validation and
#: suppression fail (exit 1), and the DFT oracle samples the ragged paths.
RAGGED_VERIFY_DIGEST = "48c36796f1ac2643e876d4a2c7a1c90e6a9a130af3c4d843622ec659db30cf61"


def ragged_schedule(tmp_path):
    schedule = tmp_path / "schedule.json"
    assert main(["design", "--elements", "6", "--paths", "8", "--theta-deg", "25",
                 "--alpha-db", "-4", "--out", str(schedule)]) == 0
    doc = json.loads(schedule.read_text())
    doc["elements"][1]["paths"] = doc["elements"][1]["paths"][:5]
    doc["elements"][4]["paths"] = doc["elements"][4]["paths"][2:]
    schedule.write_text(json.dumps(doc))
    return str(schedule)


def test_pattern_from_ragged_schedule_file(capsys, tmp_path):
    digest = stdout_digest(capsys, ["pattern", "--schedule", ragged_schedule(tmp_path),
                                    "--harmonics", "1,-3,5,-7,9"])
    assert digest == RAGGED_DIGEST


def test_verify_ragged_schedule_file(capsys, tmp_path):
    digest = stdout_digest(capsys, ["verify", "--schedule", ragged_schedule(tmp_path)], 1)
    assert digest == RAGGED_VERIFY_DIGEST


#: ``qam`` of a square 64-QAM with circuit pre-distortion: 64 symbols share
#: 9 magnitudes.
QAM64_CIRCUIT_DIGEST = "1b245e58b8bf15ab8d57cac27f29b029b2b7756332bc9981d28a44b0a0960327"


def test_qam64_circuit_predistortion(capsys, tmp_path):
    constellation = tmp_path / "qam64.csv"
    levels = range(-7, 8, 2)
    constellation.write_text("i,q\n" + "".join(f"{i},{q}\n" for i in levels for q in levels))
    digest = stdout_digest(capsys, ["qam", "--constellation", str(constellation),
                                    "--predistort", "circuit",
                                    "--circuit", reference_path("circuit_params_2ghz.json")])
    assert digest == QAM64_CIRCUIT_DIGEST


#: ``efficiency`` of a 16-element 8-path array on a 0.5 dB back-off grid with
#: a circuit file: the batched sweep must print the per-alpha loop's bytes.
EFFICIENCY_8PATH_DIGEST = "f0865064e400131984b53555ff685efd5ec72732900c3c6c10103fc998c39937"


def test_efficiency_8path_sweep(capsys):
    digest = stdout_digest(capsys, ["efficiency", "--elements", "16", "--paths", "8",
                                    "--theta-deg", "-35", "--alpha-db-step", "0.5",
                                    "--circuit", reference_path("circuit_params_2ghz.json")])
    assert digest == EFFICIENCY_8PATH_DIGEST
