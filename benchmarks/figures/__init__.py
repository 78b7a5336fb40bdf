"""The apparatus behind the paper-figure scripts (``benchmarks/bench_*.py``).

None of this is the protocol; ``repro`` never imports it.

* :mod:`figures.latency` — Fig. 4 and the §7.2 headline: registrations run
  under a ``mem`` telemetry sink, and their span tree is read back into the
  phase × component table;
* :mod:`figures.hardware` — the L1/L2/H1/H2 hardware profiles and the
  printer and scanner models that table applies;
* :mod:`figures.baselines` — Swiss Post, VoteAgain, Civitas and TRIP-Core cost
  kernels for Fig. 5;
* :mod:`figures.usability` — the §7.5 user-study model;
* :mod:`figures.tables` — the plain-text tables and series the scripts print.

The scripts import it as the top-level package ``figures``: pytest puts
``benchmarks/`` on ``sys.path`` for anything it collects there.
"""
