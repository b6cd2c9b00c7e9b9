"""
Pooling tables and serializing them to Markdown
===============================================

"""

from tablescout import Table, markdown_grid, pool_corpora, sample_rows, serialize_markdown

# Two toy sources. Each one is just a list of in-memory tables; on disk they
# would come from load_tables() pointed at a CSV directory or a sqlite file.
hr_tables = [
    Table.build(
        "people",
        "people",
        ["person_id", "name", "city_id"],
        [["1", "Ada", "10"], ["2", "Bo", "11"], ["3", "Cy", None], ["4", "Di", "10"]],
    ),
    Table.build("notes", "notes", ["note", "tag"], [["hello | world", None]]),
]
geo_tables = [
    Table.build(
        "cities",
        "cities",
        ["city_id", "city"],
        [["10", "Oslo"], ["11", "Turin"], ["12", "Lagos"]],
    ),
    # same name as the hr table, on purpose
    Table.build("notes_geo", "notes", ["note"], [["second source"]]),
]

corpus = pool_corpora([("hr", hr_tables), ("geo", geo_tables)])
print("pooled ids:", [t.id for t in corpus])
print("pooled names:", [t.name for t in corpus])
print("provenance:", dict(corpus.provenance))
# The colliding 'notes' from the later-sorted source was renamed notes__2.

people = next(t for t in corpus if t.id == "people")

# Row sampling is seeded, so the same table always yields the same sample.
sample = sample_rows(people, n=3)
print("\nsampled row indices:", sample)
assert sample == sample_rows(people, n=3)

# The grid alone, and the full serialization, which puts the name line above
# that same rendered grid.
grid = markdown_grid(people, sample)
print("\n--- markdown_grid ---")
print(grid)
print("\n--- serialize_markdown ---")
print(serialize_markdown(people, grid))

# Missing values render as empty cells and pipe characters inside cells get a
# backslash so the grid stays one row per line. The hr notes table lost the
# name race, so it is the one called notes__2 now.
notes = next(t for t in corpus if t.id == "notes__2")
print("\n--- cell escaping ---")
print(markdown_grid(notes, sample_rows(notes)))
