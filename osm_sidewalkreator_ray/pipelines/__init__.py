"""End-user pipelines: relational ops over the testdata star schema,
text/dedup/ANN/search operators over documents+embeddings, graph and
trajectory operators, and the flagship sidewalk + page-join geospatial
pipelines."""
