"""The CLI's stdout, byte for byte, on the worked design and one generic design.

Each file under tests/golden/ is the exact stdout of one command. A change
that alters a byte of it has to say why and regenerate the file with the
same command.
"""

import json
from pathlib import Path

import pytest

from duporcq.cli import main
from duporcq.geometry import (
    PentapodDesign,
    design_to_dict,
    duporcq_hexapod,
    swap_4_5,
    worked_design,
)

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "classify": ["classify", "{worked}"],
    "pipeline": ["pipeline", "{worked}"],
    # the worked design with legs 4 and 5 exchanged: its kappa_2 twin's
    # report, naming the case
    "pipeline_rec3": ["pipeline", "{rec3}"],
    "profile": ["profile", "{worked}"],
    "pipeline_generic": ["pipeline", "--params", "1/3,-2,5/2,7",
                         "--mu", "3/2,1/5,-2", "--radii", "1,2,3,4,5"],
}


def _design_paths(tmp_path) -> dict:
    worked = worked_design()
    designs = {"worked": worked, "rec3": PentapodDesign(*map(swap_4_5, (
        worked.base, worked.platform, worked.radii2)))}
    paths = {key: tmp_path / f"{key}.json" for key in designs}
    for key, design in designs.items():
        paths[key].write_text(json.dumps(design_to_dict(
            design, duporcq_hexapod(design))))
    return paths


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, tmp_path, capsys):
    paths = _design_paths(tmp_path)
    argv = [a.format(**paths) for a in COMMANDS[name]]
    assert main(argv) == 0
    expected = (GOLDEN / f"{name}.stdout").read_text()
    assert capsys.readouterr().out == expected


def test_classify_golden_holds_for_every_samples_and_seed(tmp_path, capsys):
    # classify decides at no more than 11 distinct directions, and pictures
    # that agree at 11 agree at every direction, so neither the number of
    # random directions nor their seed changes a byte
    worked = str(_design_paths(tmp_path)["worked"])
    expected = (GOLDEN / "classify.stdout").read_text()
    for samples in (1, 5, 20, 100):
        for seed in range(4):
            assert main(["classify", worked, "--samples", str(samples),
                         "--seed", str(seed)]) == 0
            assert capsys.readouterr().out == expected, (samples, seed)
