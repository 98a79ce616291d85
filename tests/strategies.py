"""Shared hypothesis strategies for flow-table-level property tests."""

from hypothesis import strategies as st

from repro.flowtable.table import Entry, FlowTable


@st.composite
def normal_mode_tables(
    draw,
    min_states: int = 2,
    max_states: int = 5,
    min_inputs: int = 1,
    max_inputs: int = 3,
    num_outputs: int = 1,
    allow_unspecified: bool = True,
):
    """Random normal-mode flow tables.

    Construction guarantees normal mode by first choosing, per column, a
    non-empty set of stable states, then pointing every other specified
    entry at one of them.  Every state is made stable in at least one
    column (re-drawing the column sets until that holds).  Strong
    connectivity is NOT guaranteed — tests that need it should filter.
    """
    num_states = draw(st.integers(min_states, max_states))
    num_inputs = draw(st.integers(min_inputs, max_inputs))
    states = tuple(f"s{i}" for i in range(num_states))
    inputs = tuple(f"x{i + 1}" for i in range(num_inputs))
    outputs = tuple(f"z{i + 1}" for i in range(num_outputs))
    num_columns = 1 << num_inputs

    # Stable sets per column; redraw until every state is stable somewhere.
    stable_sets = []
    for column in range(num_columns):
        subset = draw(
            st.sets(st.sampled_from(states), min_size=1, max_size=num_states)
        )
        stable_sets.append(frozenset(subset))
    uncovered = set(states) - set().union(*stable_sets)
    for state in sorted(uncovered):
        column = draw(st.integers(0, num_columns - 1))
        stable_sets[column] = stable_sets[column] | {state}

    entries = {}
    for column in range(num_columns):
        stable_here = sorted(stable_sets[column])
        for state in states:
            if state in stable_sets[column]:
                out_bits = tuple(
                    draw(st.sampled_from([0, 1])) for _ in outputs
                )
                entries[(state, column)] = Entry(state, out_bits)
                continue
            if allow_unspecified and draw(st.booleans()):
                continue  # unspecified cell
            dest = draw(st.sampled_from(stable_here))
            out_bits = tuple(
                draw(st.sampled_from([0, 1, None])) for _ in outputs
            )
            entries[(state, column)] = Entry(dest, out_bits)
    return FlowTable(inputs, outputs, states, entries, name="random")
