"""Hypothesis strategies shared by the ``test_property_*`` files."""

from hypothesis import strategies as st

from repro.workloads.synthetic import affine_loop

#: Keyword arguments for ``random_irregular_loop``: opaque (runtime
#: subscript) loops of every shape, the empty loop included.
loop_params = st.fixed_dictionaries(
    {
        "n": st.integers(0, 80),
        "max_terms": st.integers(0, 5),
        "y_extra": st.integers(0, 12),
        "seed": st.integers(0, 10_000),
        "external_init": st.booleans(),
    }
)

#: Affine (c, d) pairs kept small so loops stay fast but signs and
#: divisibility corner cases are all reachable.
affine_pair = st.tuples(
    st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0),
    st.integers(min_value=-6, max_value=6),
)


@st.composite
def affine_loops(draw):
    """Fully closed-form loops: an affine write and 0-3 affine slots."""
    n = draw(st.integers(min_value=2, max_value=60))
    write = draw(affine_pair)
    n_slots = draw(st.integers(min_value=0, max_value=3))
    slots = [draw(affine_pair) for _ in range(n_slots)]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return affine_loop(n, write, slots, seed=seed, name="prop-affine")
