"""Subsets stay int masks up to the printed text: the digests of the
commands that print subsets, a run of every subcommand with the
frozenset views made to raise, and the boundary of the mask printer."""

import hashlib
import sys

import pytest

import latkit
from latkit.cli import main
from latkit.core import format_element_set, format_mask, mask_labels, members, to_mask
from latkit.corpus import enumerate_lattices, make_Mn, make_N5
from latkit.deduction import DSLattice
from latkit.errors import InvalidParameter

# sha256 of the standard output of each command that prints subsets, in
# text and JSON, on N5, on M:3 (labels longer than one character, so
# braces), on fig2 and on B:3.
SUBSET_OUTPUT_SHA256 = {
    "plus-table --lattice N5 --format text":
        "cfe041e57b3852db091662447bba58dabb5603676391fec40da9ae60487ec203",
    "plus-table --lattice N5 --format json":
        "8a2fef3a9bf09d86a063ea1dea0a566418a0c6ee1b9f6f62367524ab6d17e00a",
    "op-table --op implies --lattice N5 --format text":
        "3bf126d6f7fa5c0476a735dbbad4712fac7121d63def76a2b6ae35e046a996d3",
    "op-table --op implies --lattice N5 --format json":
        "a01db7b905d38148dd080c609e9a8282dd92aa9ca1f155a82b8a626f4af62d53",
    "op-table --op odot --lattice N5 --format text":
        "b8ffd401a6d8986fc36d07eaa9047d4e86423b05a49d25d1ffe739e2aa6643bd",
    "op-table --op odot --lattice N5 --format json":
        "710225cb7a2178ec362b8a7926740924a646cbae071dff88ebc5cfa5f6e749fb",
    "deductive-systems --lattice N5 --format text":
        "b90ea1252186576deac2b842a4d8cfc7d3e3c00d8c059940d90c91b3bf1ae4d5",
    "deductive-systems --lattice N5 --format json":
        "65cfc63402bc1cbc73c7031c4845b2f55b7bca3a7aa53c47032065ba2a4400a7",
    "deductive-systems --lattice-of --lattice N5 --format text":
        "f68f26c02f1c00552ed2dc1054af5c5b8908e4ccbcd9a1b6e7068c4d4ef23ac3",
    "deductive-systems --lattice-of --lattice N5 --format json":
        "65cfc63402bc1cbc73c7031c4845b2f55b7bca3a7aa53c47032065ba2a4400a7",
    "plus-table --lattice M:3 --format text":
        "cf882004fe1c0e530f31f2e2c6c0c9dcc791d99fb4302cdc7fc5c49d6041b8b2",
    "plus-table --lattice M:3 --format json":
        "8d1f1f1dd59ebd4b4d311b8acdfc5a0ebae6899aa55db2ca263c0084ef5bc80a",
    "op-table --op implies --lattice M:3 --format text":
        "ffcceda39390ee71b5b1b3e4a59882b6f12385b536df4434f7a1785e58837680",
    "op-table --op implies --lattice M:3 --format json":
        "2365d037bfe2a2d20cea5f0fa6c8b8db0378d6c7b2abe992fc5e15e7927ca221",
    "op-table --op odot --lattice M:3 --format text":
        "9c8679b5b19fe714da62a716adb62f9eda99083aa89af78a491ed108d12c495f",
    "op-table --op odot --lattice M:3 --format json":
        "d6dce15ec53aa62c92695c53bcf04531f9275128b7e0802fbce3d6d4922bc44d",
    "deductive-systems --lattice M:3 --format text":
        "ce72fb2ed84868568004978ca96457399dac5bc6c6c5ffbea5f00e79bf009ce4",
    "deductive-systems --lattice M:3 --format json":
        "b35d789ff34fda0cbf06fa877c9ac08415badd5cd3d9075f004a113641e54620",
    "deductive-systems --lattice-of --lattice M:3 --format text":
        "d4ce75edcf9b34972573ee70c35b0ed59ba083146a3292c663defe68ff2d3151",
    "deductive-systems --lattice-of --lattice M:3 --format json":
        "b35d789ff34fda0cbf06fa877c9ac08415badd5cd3d9075f004a113641e54620",
    "plus-table --lattice fig2 --format text":
        "5b4117c08f98cd0c591295eda48f64116e1dbd83776ef5ff38f8406469540991",
    "plus-table --lattice fig2 --format json":
        "10800a8e8717566975cbdd0e79cbd50649d884a90a29d4b646246b9fbc1383d6",
    "op-table --op implies --lattice fig2 --format text":
        "32abcd21e5532c205b251edb9365537443f8a4492eea3ee38a2012302ff47a4f",
    "op-table --op implies --lattice fig2 --format json":
        "1f397abee83733d9674e019aadb125256e1894e058cc00c4f575b9352c419090",
    "op-table --op odot --lattice fig2 --format text":
        "7cb81a9c2269d4ca381ee108ea77b00c8e8835a351dd5e4755b7053fb8475ecd",
    "op-table --op odot --lattice fig2 --format json":
        "7ba2be975e704b2d77a02c46a7ea62035438357d2d40074b471207b3d321f730",
    "deductive-systems --lattice fig2 --format text":
        "cfb6b89ae8ef9bb626bd71938932298644bd7ae5d079f44413dda1e74ae71dfe",
    "deductive-systems --lattice fig2 --format json":
        "c1a20e9823813ae4dec1926417ac0001fea30e55f685bb95ff33f65e8fa42b9e",
    "deductive-systems --lattice-of --lattice fig2 --format text":
        "13119ee2e10e321494ee1366aef33d4968ce10ad659815f90deb78f0748b5ed9",
    "deductive-systems --lattice-of --lattice fig2 --format json":
        "c1a20e9823813ae4dec1926417ac0001fea30e55f685bb95ff33f65e8fa42b9e",
    "plus-table --lattice B:3 --format text":
        "b186b621ff428e1742aa60a21355907c1065c7261b6c9d525f0a4274cb170540",
    "plus-table --lattice B:3 --format json":
        "8fbc4e3b8fc43062c45cb8e3a540ed3e2fa062a4e1477d33b48e2f22f5db381b",
    "op-table --op implies --lattice B:3 --format text":
        "c6b93fac450eb76759ca935f0cd7bb18eac336bb0d0b936cf6a7733684f8a294",
    "op-table --op implies --lattice B:3 --format json":
        "4c5a87848763bec51d08bb6c62d94f264d8477496aa59c6a5f15874535840f2e",
    "op-table --op odot --lattice B:3 --format text":
        "cbeded5a3e14f566a335b51af1f34e42a7d91d47802f377b2180713dcd0d9a5e",
    "op-table --op odot --lattice B:3 --format json":
        "30026a2c90d196b38a8f563fe141b06f93c08edcfa6d3016c2f35f14c27417de",
    "deductive-systems --lattice B:3 --format text":
        "073eeb813d87cfd8622971eee2d747c85ef660e6ba261ce8d549e7cd8342b840",
    "deductive-systems --lattice B:3 --format json":
        "6609017a5e4a762d70a14ff70d11a3c9a7e3f87668e85054478296fead932f5b",
    "deductive-systems --lattice-of --lattice B:3 --format text":
        "b533929ec50ec0ab036d6043670337b4f0734d5d7ecbb18fcf74c561aecf05a1",
    "deductive-systems --lattice-of --lattice B:3 --format json":
        "6609017a5e4a762d70a14ff70d11a3c9a7e3f87668e85054478296fead932f5b",
}

# The frozenset views of the mask tables, and the conversions behind
# them; the command line and the renderers read the masks instead.
SET_VIEWS = ("complement_sets", "closed_sets", "format_element_set", "implies_table",
             "odot_table", "op_table", "to_set")

SUBCOMMANDS = (["info"], ["plus-table"], ["op-table", "--op", "implies"],
               ["op-table", "--op", "odot"], ["verify"], ["deductive-systems"],
               ["deductive-systems", "--lattice-of"])


@pytest.mark.parametrize("command", sorted(SUBSET_OUTPUT_SHA256))
def test_subset_output_digests(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SUBSET_OUTPUT_SHA256[command]


def test_subcommands_read_no_set_view(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a frozenset view was read")

    for name in SET_VIEWS:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("latkit") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(DSLattice, "systems", property(refuse))
    for argv in SUBCOMMANDS:
        for fmt in ("text", "json"):
            assert main([*argv, "--lattice", "M:3", "--format", fmt]) == 0, argv
    assert main(["export-dot", "--lattice", "M:3"]) == 0


def test_mask_printer_on_every_subset():
    for lat in (make_N5(), make_Mn(3)):
        short = all(len(x) == 1 for x in lat.labels)
        for m in range(1 << lat.n):
            labs = [lat.labels[i] for i in lat.elements if m >> i & 1]
            text = "∅" if not labs else "".join(labs) if short else "{" + ",".join(labs) + "}"
            assert mask_labels(lat, m) == labs
            assert format_mask(lat, m) == text
            assert format_element_set(lat, frozenset(members(m))) == text
    assert format_mask(make_N5(), 0) == "∅"
    assert format_mask(make_Mn(3), to_mask(make_Mn(3), {1, 4})) == "{a1,1}"


def test_format_element_set_reads_an_iterable_once():
    assert format_element_set(make_N5(), (x for x in [1, 2])) == "ab"
    assert latkit.format_element_set(make_N5(), iter([2])) == "b"


def test_enumerate_lattices_refuses_a_string_of_tags():
    with pytest.raises(InvalidParameter, match="'complemented' is a string, not a collection"):
        enumerate_lattices(3, "complemented")
    assert len(enumerate_lattices(4, ["complemented"])) == 1
