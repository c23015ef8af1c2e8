"""The verification corpus keeps its instances: each list's length and names, in order."""

import corpus


def test_corpus_lists_keep_their_instances_in_order():
    assert [d.name for d in corpus.corpus_diagrams()] == [
        "delta1_on_arrow", "deltaB_on_chain3", "pick_BZ3", "inversion_action", "collapse_arrow",
        "swap_iso", "poset_fibres", "square_sets", "two_islands", "set_function", "z2_swap_sets",
    ]
    assert [phi.name for phi in corpus.corpus_opfibs()] == [
        "phi_terminal", "phi_delta1", "phi_collapse", "phi_iso", "phi_chain", "phi_sign",
        "phi_id_semi", "product_square",
    ]
    assert [z.name for z, _ in corpus.corpus_z_instances()] == [
        "two_point_z", "two_point_z", "z_wa", "z_d2", "sign_z", "z_term", "z_ch", "z_nondiscrete",
    ]
    assert [(alpha.name, phi.name) for alpha, phi in corpus.pseudonat_instances()] == [
        ("id[collapse_arrow]", "phi_collapse"), ("points", "phi_collapse"), ("alpha_ends", "phi_pick"),
        ("alpha_chain", "phi_chain"), ("id[inversion_action]", "phi_sign"),
    ]
    assert [(h.name, d.name) for h, d in corpus.base_change_instances()] == [
        ("id[chain(3)]", "deltaB_chain"), ("pick1", "deltaB_chain"), ("span", "poset_fibres"),
        ("ends", "collapse_arrow"), ("pt", "inversion_action"),
    ]
