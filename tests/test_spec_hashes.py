"""Pinned content hashes of the registered scenario suites.

A spec's content hash keys its result-cache entry and its campaign-store
records, so a change that moves the hash of a registered spec orphans
every stored result of it.  This golden makes such a change deliberate:
update an entry only together with the reason the result itself changed.

The ``n1-screening`` suites are left out: an OPF feasibility screen
decides which outage specs they contain.
"""

from __future__ import annotations

import pytest

from repro.engine import scenario_suite

#: Suite name → spec name → ``ScenarioSpec.content_hash()``.
REGISTERED_HASHES: dict[str, dict[str, str]] = {
    "daily-ops": {
        "daily-ops-summer": "2aeaa2ca0595ac712aa9c0c3d8a2fe6921ed8f200692ceea9740364ef81e9f52",
        "daily-ops-weekday": "99fbc3d9abbdd3b0ca2ff7f485626898e23f68ae4d03e0fc3c68ac2e1c3ba805",
        "daily-ops-weekend": "ac3e45525f9535e474a13a2db307c1a7e7d6f0cadaafd72811d96159a6e77058",
        "daily-ops-weekend-transition": "b02504d2889fe43c6445a8b900cf4fbbd870f93dd23763bfef38779c53ebd524",
    },
    "fig10": {
        "fig10-operation": "99fbc3d9abbdd3b0ca2ff7f485626898e23f68ae4d03e0fc3c68ac2e1c3ba805",
    },
    "fig11": {
        "fig10-operation": "99fbc3d9abbdd3b0ca2ff7f485626898e23f68ae4d03e0fc3c68ac2e1c3ba805",
    },
    "fig6a": {
        "fig6-ieee14[gamma_threshold=0.05]": "5324767859704946582ba61d105af77c1f24e403bf3f37f69bfd9b2976a2089d",
        "fig6-ieee14[gamma_threshold=0.15]": "cfa8283a104f1d5c5dc591ec12490c18f990ec54c2c27a9929092030bc6235c6",
        "fig6-ieee14[gamma_threshold=0.1]": "960317b959d1536fb5a9859e5908ab06db25edde5308724f8e04e412d9e68e83",
        "fig6-ieee14[gamma_threshold=0.25]": "a561279afa42121147ad99e12f8fea2a88dde312aa24f39ac1befbeb14a1feaa",
        "fig6-ieee14[gamma_threshold=0.2]": "b560d571075b9aa34bbc0e5369ca6db6ce8af47d2cb7686228e5da950cc4be79",
        "fig6-ieee14[gamma_threshold=0.35]": "637de7b95ed930a9a5f3e309a4bec88f7075778886b2bc142febc37321e0ab66",
        "fig6-ieee14[gamma_threshold=0.3]": "a7aba328709ced1fd8094c5e72cb9d78fe030369f523d467729a7e12717adb2d",
        "fig6-ieee14[gamma_threshold=0.45]": "f2c3cdbfd4969ff02aaa8fbae285a7a4f4538c9fa4606d196a94e99d246d3f37",
        "fig6-ieee14[gamma_threshold=0.4]": "dfdb8eaa7568ccd6ad0f971173a7a9444aa057981ca0f4eaa5031c717f8d91a1",
        "fig6-ieee14[gamma_threshold=0.5]": "206410bfe71bde9805673cccfe18f437e3b445497d78e831d60e511218dc73ba",
    },
    "fig6b": {
        "fig6-ieee30[gamma_threshold=0.05]": "099b25a60be145d30507ee46c178ce2aac0037d849dd861bf16b0dbbf0830346",
        "fig6-ieee30[gamma_threshold=0.15]": "cd4606fb4af0482694559116838e50acf9f8070d1ad715f00e6c6b2313731b5b",
        "fig6-ieee30[gamma_threshold=0.1]": "ee619afb7b573b52a05d98cb03474286d3df5971f2e375b8fd5459d7119ad8cd",
        "fig6-ieee30[gamma_threshold=0.25]": "4b07e777cab38c7988546319961c38363070d26e8cb4b1c0bd57697772722a54",
        "fig6-ieee30[gamma_threshold=0.2]": "79828e0ab2645156380406933f8e57df9f13d883e667c7fcf662eeeb9cd9b4e8",
        "fig6-ieee30[gamma_threshold=0.35]": "f6bd200a8ddc731db21e15b319e3922823c7ce8eca34b34738f295f29095e53c",
        "fig6-ieee30[gamma_threshold=0.3]": "121cb747a5523edb9b7b4df4ffeac607fc7524b0d2d5a3e1adf348c585c5f609",
        "fig6-ieee30[gamma_threshold=0.45]": "054b42f3c91136dd29ebd547f88f55b69aab18cdc498a13e260ea3e2e18f7526",
        "fig6-ieee30[gamma_threshold=0.4]": "b8dda99c43b1533e40bb8c695e8ccce65785831fc3e8c6d48c35fdeb5769f4be",
        "fig6-ieee30[gamma_threshold=0.5]": "d8e7a18e37f1abd39cd0265dc8ece614935f38d49b30a5238992a4f69f686c39",
    },
    "fig7": {
        "fig7-random-mtd": "8383633c036d50a17d18cd1f50786ac09c178d711c35bc37f03b7c8177e41870",
    },
    "fig8": {
        "fig8-keyspace": "58992f0df9ba3d7c9964a60807fbb04c77559239f97453c59a58f2e3a9a229fd",
    },
    "fig9": {
        "fig9-tradeoff[gamma_threshold=0.05]": "dce814d518e9cb0a009aa0bc263b107d1faac27d0062f2c7085eeb2e564e4735",
        "fig9-tradeoff[gamma_threshold=0.15]": "27aa25edbe5f57154d6355505a6386c6c1791f34f931b32e8fa9adc108c916a7",
        "fig9-tradeoff[gamma_threshold=0.1]": "8eddb2973de7c7d564774fd90e531c8b235ca8a1f9a307c150a5d1420d741e6e",
        "fig9-tradeoff[gamma_threshold=0.25]": "180efdf2283c32c899ae699ee4cd7251ae4fc58a4903fb5005e30edb8c63c0f5",
        "fig9-tradeoff[gamma_threshold=0.2]": "acff95954ffb299b33c7fe8b78fa3081535eb24b55dbe3d43ba41c187e0698c9",
        "fig9-tradeoff[gamma_threshold=0.35]": "bff8dc407b334a7abe1d863de8ab3cd420c2f096f9100fd3bb455faf52f910e0",
        "fig9-tradeoff[gamma_threshold=0.3]": "c7fe170de7d39d073b327ce200db2eb6d7d7d440cfdf827e6ce96042a1886985",
        "fig9-tradeoff[gamma_threshold=0.45]": "687b4f6eeda4c8dbb03cc7b6b7e693b1539bcc0d89bb28c6682073afed631b31",
        "fig9-tradeoff[gamma_threshold=0.4]": "4162c33c0aec624403d982d7f1037b1dab82045a78b667ba59c7e4860d2e6a61",
        "fig9-tradeoff[gamma_threshold=0.5]": "2bb245835e4f6bde924893736ce2a6937e123b52957bacc1c859f2d7519b7131",
    },
    "scale": {
        "scale-ieee14": "82fce86d998e86fa8bac3ae0be74c634abbea1e22c4ed4d7a9e9a2093fb84544",
        "scale-ieee30": "231f2909256ee542bba2560c7b9c494eedb0fb6936dfafae7da83740524c9fa4",
        "scale-synthetic118": "266cb0eb73f1803ef2be3f55e666fd052c9b208c040c1e55abece05a398b79a3",
        "scale-synthetic1354": "d35d8664c24bd37d6fb5f31df1e42907b3b19f279790392925e91b7ec1875422",
        "scale-synthetic300": "c74c55edd31700bf83b15e339055254270a0203ae048c3f8dc61d408498c4e8d",
        "scale-synthetic57": "5c73e435720cfc45a5c953e788468449919e3c5518ac92cfce462d0eefa8522a",
    },
    "tables": {
        "table1-table2-preperturbation": "48adee36590862c30d913b91ee1bc1df8cf438ef6f684cee816c3f1a48cbff17",
        "table1-table3-postperturbation": "a8f975de1a4ed02b40fce955bbfe810ab29e23ad7ac571145a3497bfaef6f285",
    },
}


@pytest.mark.parametrize("suite", sorted(REGISTERED_HASHES))
def test_registered_spec_hashes_are_pinned(suite):
    hashes = {spec.name: spec.content_hash() for spec in scenario_suite(suite)}
    assert hashes == REGISTERED_HASHES[suite]
