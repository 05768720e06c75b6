"""Survey a generated corpus: classes, patches, and extension checks.

The generator enumerates every connected planar graph up to six vertices
(one per isomorphism class) and samples larger sizes deterministically.
This script reproduces the kind of sweep the acceptance suite runs, at a
reduced size so it finishes in seconds.
"""

from collections import Counter

from dpcolor import (CorpusSpec, class_membership, classify_cycle,
                     corpus_generate, enumerate_cycles, find_triangle_patches,
                     greedy_extension_order, survey_precoloring_extensions)

corpus = list(corpus_generate(CorpusSpec(3, 6)))
print(f"connected planar graphs on 3..6 vertices: {len(corpus)}")

labels = Counter(class_membership(g).label for g in corpus)
print("class membership:", dict(labels))

patch_sizes = Counter(p.size for g in corpus for p in find_triangle_patches(g))
print("triangle patch sizes across the corpus:", dict(sorted(patch_sizes.items())))

print("\nextension sweep on the first ten class-g1 graphs with a short cycle:")
done = 0
for g in corpus:
    if not class_membership(g).in_g1:
        continue
    cycles = enumerate_cycles(g, 7)
    if not cycles:
        continue
    cyc = min(cycles, key=lambda c: (c.length, c.vertices)).vertices
    order = greedy_extension_order(g, cyc, 4)
    survey = survey_precoloring_extensions(g, cyc, 4)
    print(f"  n={g.vertex_count} m={g.edge_count} cycle={cyc}: "
          f"{survey.covers_checked} covers of G - C, "
          f"{survey.precolorings_checked} banned-color configurations, "
          f"failures={len(survey.failures)}"
          + (" (a greedy order already proves it)" if order else ""))
    done += 1
    if done == 10:
        break

print("\nsampled corpus at 7 vertices, class g2, fixed seed:")
for g in corpus_generate(CorpusSpec(7, 7, "g2", seed=1, per_size_samples=3)):
    good = [c for c in enumerate_cycles(g, 8)
            if classify_cycle(g, c).is_good]
    print(f"  n={g.vertex_count} edges={g.edge_count} "
          f"good short cycles: {len(good)}")
