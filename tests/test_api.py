import pentaplanar
from pentaplanar import canon, embeddings, enumeration, families, graphs, kernels, verification

# helpers that had no production caller and no oracle role; removed
DELETED = {
    canon: ("canonical_order",),
    graphs: ("complete_bipartite", "contract_edge", "degree"),
    embeddings: ("is_planar", "parse_rotations", "_bridges", "_insert_path"),
    enumeration: ("canonical_code", "_stabilisers", "_least_in_orbit"),
    families: ("FAMILY_NAMES",),
    kernels: ("backends", "compiled_available"),
    verification: ("verify_lemmas_over", "_triangles", "_lemma1_note", "_path_forest_shape"),
}


def test_public_api_resolves():
    for name in pentaplanar.__all__:
        assert hasattr(pentaplanar, name), name
    for module, names in DELETED.items():
        for name in names:
            assert name not in pentaplanar.__all__
            assert not hasattr(pentaplanar, name), name
            assert not hasattr(module, name), name
    assert not hasattr(pentaplanar.Embedding, "serialize")
    # a sweep records through LemmaStats.add, record and merge alone
    for name in ("record_all", "violation"):
        assert not hasattr(verification.LemmaStats, name), name
    assert not hasattr(verification, "_record")
