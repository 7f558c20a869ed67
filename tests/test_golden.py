"""Golden pins: the digest of every run in ``golden_runs.RUNS``. A refactor must leave every digest as it is; a
change of behaviour re-pins only the runs it names."""

from __future__ import annotations

import pytest

from golden_runs import RUNS, digest


PINS = {
    "decode-drop:0.3-brackets-diagnostics": "e7f2b34bcaaa63a3e5f2d13844a133430a3ad398e6a6fc7870fb0fa7e7427bab",
    "decode-drop:0.3-xml": "d13e0d3faa204fc0a811165525f77e8e05f4fa8da6a7e533b4780b9f771be361",
    "encode-brackets": "7b97232bf56917e77164abc11a4f6dff1290dfab88a06193d17ce03aa74fd493",
    "encode-error-budget-0": "e569dc82215280486643ffba630f7b5606edea17d6d705abecda92df605afcdc",
    "encode-error-budget-1": "64e2cead8d9ea52dbdad279ca8aa6120d48776d5288e47318ccb406e622ba835",
    "encode-xml": "ad4743ab34c56e69e77cf1069afed5a12f5822cb63f1eb36a754cda97cb82289",
    "evaluate-json": "4174de81392d2500a5b4accfb578ae7c24c4bf28b23c8d1c4c5a7a2b8234b15d",
    "evaluate-missing-projected-bad-threshold": "b24a4359ad6d1a40f8e980a57c5c92473c5718bda577277acef7e36e08d35453",
    "evaluate-missing-projected-source-tagged-alone": "4f2d85ad4db56878ac96f411abe65a1cd5a76ccfb167083666c3741b56c83784",
    "evaluate-table": "4baba4753b7496d3800d5a2abdd679deb816c9400608399e98594e6525b6535b",
    "evaluate-tagged-json": "e4bd3bb9bacfbd83fda317d861d9c3e4bcc85859df5ca1aae348cbe88078caff",
    "evaluate-tagged-table": "30fd63529b749f4876ce8fdbffc295fcf3a026ff3fbc4a17a5024e4891836240",
    "filter-qa-constant-90": "aeb9642f7b089ea1f8597b44756a2464a7ddba4c540cef1d72db4b57af9372dd",
    "filter-qa-count-mismatch": "c58f9e005f01862b0e9c94da64eb79d031ee2e71f8035fedd43b4a34d6d0258d",
    "filter-qa-http": "057fe68a5bd41a05c9e768d7f4c8dd24c35c6d350f08d4c317b67adaf2084376",
    "filter-qa-no-score-filter": "aeb9642f7b089ea1f8597b44756a2464a7ddba4c540cef1d72db4b57af9372dd",
    "prep": "018ffbfe88aa73afce54e7f74f43286be72d1c2ee8fc7f17be8a78776bb467fb",
    "project-drop:0.3-brackets": "5e2dea28aa26bf78ae9825bafb3ea8f254baf3af297db8878e43b8c7363e9d17",
    "project-drop:0.3-xml": "63e834b9051aec3f6d3ade5c9e5cf7b2ca6b3bcf3d4281dda1d7256551fee3b4",
    "project-duplicate-id": "4b3a779cee090cd98ca2ece0a57ac09c7e921cc4ac72fa20465957d179d86768",
    "project-empty-equal-languages": "ed359bc099ad7272c0570ebf03f3bf83f0ff718cbdfca1393f2a7412e192f520",
    "project-error-budget-1": "643525226f91df0e395bd77907d148e05736bcb02be95ec4152fb3f52fa15011",
    "project-http": "297e95be48dd0407bbc0835c58580438fd22f0b270a10ed46674bbe18b27894b",
    "project-identity-brackets": "c128765acd8ddcab1111ff4bf1b3f59ec542b14dab8b9c2cd94660fdf2ab1d9e",
    "project-identity-xml": "24b81cd403d1503a6ea6ec33ffac452f35d114d03d080f868b995c30109828bd",
    "project-late-input-error": "909b9a859de6d4eb7ab7b73e3e5d61736b11db4768e2283850dba992c4c37cdc",
    "project-no-reference": "59f8728420c960aa0412f82747a3a98e02a11626fa9f8df13f506e3a5b1ac344",
    "project-report-csv-stdout": "0f08c64421651af6d228346d3930f60fc81be0dc8b0f6d14eb23b20d9645c984",
    "project-report-json-file": "1e267731ccccf76e6758438398a87abc200e9fdee2146f156e4d470fab15d16e",
    "project-report-table-threshold": "65912ad15bfec40afa14ce1d770f79fa8195bf5808d99494bcd428ae57fefd2c",
    "project-shuffle-brackets": "8f721cf4ed9568e51f772e80fc6f38b66e0b98c60b8ea48c405545b662ad2a7d",
    "project-shuffle-xml": "82d66f59216987ede82f3b5f57d4e28811cbf67aa74a024b2aa6c4e7ddb8e7af",
    "project-size-0": "11217c6189afbeef8877e9854a91df1523e0364549b5b905c483b30c83f6ef8e",
    "project-size-17": "90b217e833b767f8e34dfdfae0a0c7b233ed0608271bba15ddab9f2d70974751",
    "project-size-18": "8cfa536fb9339ac1c64b1abc4ff110160b306704755c6aaea3b4872430c22ab7",
    "project-size-19": "ea34afc9a90065c1c89ce46ad75688edbc763125a72fb7a1e49dd6abebb4ee66",
    "stats-annotated-table": "eb919a7cc6f5cdf6dcda6060af850ab3907f728e746d21dd439ada4d79ebf305",
    "stats-tagged-brackets-table": "1a6f6b9e7f0a686a17ca5bb2394a91be4ca40c260b64e07eeed3dc73c4a03046",
    "stats-tagged-xml-json": "be387f3becc91cd66959f9d69f537542c44c96dc500febce46a0caad7d0ea471",
    "sweep-brackets": "7e6d6f1a99e61910afb170b240855b45ce15d5414eb8669ada54ef7f1364b8ac",
    "synth-complex": "c5ec10838230fba30c95dec4df97224e9531926574c5b16c72239769d56866ca",
    "synth-simple": "53fbaa707e7e04fe407a2467f7a7c2066e78c566dc89599a3e996d87485b8a07",
    "synth-single-sequential-lengths": "6e5e15a2fbc1e563667a3947b6814ba76dc958ceadc2ef0719d6213ee028f460",
    "tagswap": "0562fade878064b1635684d7ec5f94da13d313c7110397005536a81f3fc74269",
    "translate-drop:0.3-brackets": "ca0a6c812cc34e878fd3b0aa930bf1d8b565a27d0f72931ca76f227458c6c071",
    "translate-drop:0.3-xml": "9f519fdd42375c5380a66b25cd80b01096cadd24d1c658fd84417b0b9b6e623c",
    "translate-empty": "cb4b9e358bca7ac0c4285eecfc7bff493fe324ddffea79ac371619c6c825fe8e",
    "translate-equal-languages": "3abad1cd05011e92e78d107f9022eb6e4c6042ff85f060443a68c24171807ca1",
    "translate-identity-xml": "a30b785958523e62951f5b17e15841a710ea311a419864cf0af65849ed45b4b1",
    "translate-shuffle-xml": "13505410a89dd160d258ae88e23e8eb8caaceaee8f96df43c57c455fcda16d49",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_is_pinned(tmp_path, name):
    argv, inputs = RUNS[name]
    inputs(tmp_path)
    assert digest(tmp_path, argv) == PINS.get(name), name


def test_every_run_is_pinned():
    assert sorted(PINS) == sorted(RUNS)
