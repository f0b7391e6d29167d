"""Time the generation, one constructive chain certificate, one perfect
embedding and one text round trip of a large random forest.

    python scripts/chain_scale.py 16000

Generates random_forest(n, seed=1, delete_prob=0.15), takes its alpha set S
and builds chain_decompose(g, S, "constructive") through the library, then
embed_perfect(g, "any") on the same forest, then writes the forest with
emit(g, "text") and reads the UTF-8 bytes back with parse_graph, as a pipe
between two lmss commands does. It prints one JSON object: the CPU time of
generate and the peak RSS after it, the process's peak RSS before the chain
(graph build and alpha), the chain's CPU time and the peak RSS after it,
the same two for the embedding and for the round trip, and |S|. Only the
last prefix is read, so nothing quadratic is built. Exits 1 unless the
chain has |S| entries and ends at S, the host has 2|S| vertices
(Konig-Egervary on the perfect forest) and the parsed graph equals the
generated one.
"""

import argparse
import json
import resource
import sys
import time

from lmss import FamilySpec, alpha, chain_decompose, embed_perfect, emit, generate, parse_graph


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("n", type=int)
    args = p.parse_args(argv)
    t0 = time.process_time()
    g = generate(FamilySpec("random_forest", n=args.n, seed=1, delete_prob=0.15))
    gen_cpu = time.process_time() - t0
    gen_peak = peak_rss_mb()
    s = alpha(g).set
    before = peak_rss_mb()
    t0 = time.process_time()
    cert = chain_decompose(g, s, "constructive")
    cpu = time.process_time() - t0
    ok = len(cert.chain) == len(s) and (cert.chain[-1] if s else frozenset()) == s
    chain_peak = peak_rss_mb()
    del cert  # the peak after the embedding then counts the host, not the chain
    t0 = time.process_time()
    host = embed_perfect(g, "any").host
    embed_cpu = time.process_time() - t0
    ok = ok and host.vertex_count == 2 * len(s)
    embed_peak = peak_rss_mb()
    del host
    t0 = time.process_time()
    parsed = parse_graph(emit(g, "text").encode("utf-8")).graph
    trip_cpu = time.process_time() - t0
    ok = ok and parsed == g
    print(json.dumps({"n": args.n, "seed": 1, "alpha": len(s),
                      "generate_cpu_s": round(gen_cpu, 3),
                      "peak_rss_mb_after_generate": round(gen_peak, 1),
                      "chain_cpu_s": round(cpu, 3),
                      "peak_rss_mb_before_chain": round(before, 1),
                      "peak_rss_mb": round(chain_peak, 1),
                      "embed_cpu_s": round(embed_cpu, 3),
                      "peak_rss_mb_after_embed": round(embed_peak, 1),
                      "roundtrip_cpu_s": round(trip_cpu, 3),
                      "peak_rss_mb_after_roundtrip": round(peak_rss_mb(), 1), "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
