// Plan-level semantic analysis: send/recv match pairing, the cross-rank
// wait-for graph with minimal witness cycles, and byte-interval
// happens-before buffer-race detection. See verify.hpp for the model and
// docs/VERIFICATION.md for the algorithms.
#include "han/verify/verify.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "han/verify/internal.hpp"

namespace han::verify {

namespace {

using coll::Action;
using coll::DepRef;
using coll::Plan;
using internal::FlatGraph;
using internal::ReachOracle;
using internal::tarjan_scc;
using internal::witness_cycle;

const char* kind_name(Action::Kind k) {
  switch (k) {
    case Action::Kind::Send: return "send";
    case Action::Kind::Recv: return "recv";
    case Action::Kind::Copy: return "copy";
    case Action::Kind::Reduce: return "reduce";
    case Action::Kind::Compute: return "compute";
    case Action::Kind::Noop: return "noop";
    case Action::Kind::CrossCopy: return "cross_copy";
    case Action::Kind::CrossReduce: return "cross_reduce";
  }
  return "?";
}

/// Event ids: action with flat id g has issue event 2g and completion
/// event 2g + 1. Buffer accesses are modelled as instants matching the
/// runtime: a send snapshots its payload at issue (isend_ctx copies the
/// buffer synchronously), while recv delivery and copy/reduce application
/// all mutate storage in the completion callback.
constexpr int issue_ev(int g) { return 2 * g; }
constexpr int comp_ev(int g) { return 2 * g + 1; }

enum class AccessType { Read, Write, Accum };

struct Access {
  int owner = 0;    // rank whose buffer slot is touched
  int slot = 0;
  std::size_t lo = 0, hi = 0;
  AccessType type = AccessType::Read;
  int rank = 0;     // rank executing the action
  int action = 0;
  int global = 0;   // flat action id
  int ev = 0;       // event at which the access takes effect
};

std::string interval_str(std::size_t lo, std::size_t hi) {
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
}

}  // namespace

const char* diag_name(Diag d) {
  switch (d) {
    case Diag::UnmatchedSend: return "unmatched-send";
    case Diag::UnmatchedRecv: return "unmatched-recv";
    case Diag::SizeMismatch: return "size-mismatch";
    case Diag::MatchOrderAmbiguous: return "match-order-ambiguous";
    case Diag::WaitCycle: return "wait-cycle";
    case Diag::BufferRace: return "buffer-race";
    case Diag::ReduceOrderAmbiguous: return "reduce-order-ambiguous";
    case Diag::CrossAccessUnordered: return "cross-access-unordered";
    case Diag::CollectiveCountMismatch: return "collective-count-mismatch";
    case Diag::CollectiveOrderMismatch: return "collective-order-mismatch";
    case Diag::GraphWaitCycle: return "graph-wait-cycle";
  }
  return "?";
}

std::string Report::to_string() const {
  std::string out;
  for (const Finding& f : findings) {
    out += std::string(f.severity == Severity::Error ? "error" : "warning");
    out += "[";
    out += diag_name(f.code);
    out += "]: ";
    out += f.message;
    out += "\n";
  }
  return out;
}

Report analyze_plan(const Plan& plan, int comm_size, const Options& opts) {
  Report rep;
  const int n = std::min(comm_size, static_cast<int>(plan.ranks.size()));

  // Flatten (rank, action) -> global action id.
  std::vector<int> base(n + 1, 0);
  for (int r = 0; r < n; ++r) {
    base[r + 1] = base[r] + static_cast<int>(plan.ranks[r].actions.size());
  }
  const int total = base[n];
  rep.actions = total;
  const int num_events = 2 * total;
  auto rank_of = [&](int g) {
    return static_cast<int>(std::upper_bound(base.begin(), base.end(), g) -
                            base.begin()) - 1;
  };
  auto action_of = [&](int g) { return g - base[rank_of(g)]; };
  auto describe = [&](int g) {
    const int r = rank_of(g);
    const int a = action_of(g);
    const Action& act = plan.ranks[r].actions[a];
    std::string s = "rank " + std::to_string(r) + " action " +
                    std::to_string(a) + " (" + kind_name(act.kind);
    if (act.kind == Action::Kind::Send || act.kind == Action::Kind::Recv) {
      s += (act.kind == Action::Kind::Send ? "->" : "<-") +
           std::to_string(act.peer) + " tag " + std::to_string(act.tag);
    }
    s += ")";
    return s;
  };

  // Universal happens-before edges: issue -> completion, plus dependency
  // edges (completion of the dependency enables the dependent's issue).
  std::vector<std::vector<int>> hb(num_events);
  for (int r = 0; r < n; ++r) {
    const auto& actions = plan.ranks[r].actions;
    for (int a = 0; a < static_cast<int>(actions.size()); ++a) {
      const int g = base[r] + a;
      hb[issue_ev(g)].push_back(comp_ev(g));
      for (const DepRef& d : actions[a].deps) {
        const int dr = d.rank == DepRef::kSameRank ? r : d.rank;
        hb[comp_ev(base[dr] + d.action)].push_back(issue_ev(g));
      }
    }
  }

  // ---- send/recv matching under per-(src, dst, tag) FIFO ---------------
  struct KeyOps {
    std::vector<int> sends;  // global ids, emission order
    std::vector<int> recvs;
  };
  std::map<std::tuple<int, int, int>, KeyOps> keys;  // (src, dst, tag)
  for (int r = 0; r < n; ++r) {
    const auto& actions = plan.ranks[r].actions;
    for (int a = 0; a < static_cast<int>(actions.size()); ++a) {
      const Action& act = actions[a];
      if (act.kind == Action::Kind::Send) {
        keys[{r, act.peer, act.tag}].sends.push_back(base[r] + a);
      } else if (act.kind == Action::Kind::Recv) {
        keys[{act.peer, r, act.tag}].recvs.push_back(base[r] + a);
      }
    }
  }

  // Matching pairs same-key operations in posting order: the runtime
  // posts same-rank actions in emission (index) order as they become
  // ready, so the k-th same-key send pairs with the k-th same-key recv.
  // The posting-order check itself runs later, against the fully
  // assembled happens-before graph.
  std::vector<std::pair<int, int>> matches;  // (send global, recv global)
  for (auto& [key, ops] : keys) {
    (void)key;
    const std::size_t paired = std::min(ops.sends.size(), ops.recvs.size());
    for (std::size_t k = 0; k < paired; ++k) {
      matches.emplace_back(ops.sends[k], ops.recvs[k]);
    }
    for (std::size_t k = paired; k < ops.sends.size(); ++k) {
      Finding f;
      f.code = Diag::UnmatchedSend;
      f.severity = Severity::Error;
      f.rank_a = rank_of(ops.sends[k]);
      f.index_a = action_of(ops.sends[k]);
      f.message = describe(ops.sends[k]) + " has no matching recv";
      rep.findings.push_back(std::move(f));
    }
    for (std::size_t k = paired; k < ops.recvs.size(); ++k) {
      Finding f;
      f.code = Diag::UnmatchedRecv;
      f.severity = Severity::Error;
      f.rank_a = rank_of(ops.recvs[k]);
      f.index_a = action_of(ops.recvs[k]);
      f.message = describe(ops.recvs[k]) + " has no matching send";
      rep.findings.push_back(std::move(f));
    }
  }
  rep.match_edges = static_cast<int>(matches.size());

  for (const auto& [s, v] : matches) {
    const Action& sa = plan.ranks[rank_of(s)].actions[action_of(s)];
    const Action& ra = plan.ranks[rank_of(v)].actions[action_of(v)];
    if (sa.bytes != ra.bytes) {
      Finding f;
      f.code = Diag::SizeMismatch;
      f.severity = Severity::Error;
      f.rank_a = rank_of(s);
      f.index_a = action_of(s);
      f.rank_b = rank_of(v);
      f.index_b = action_of(v);
      f.message = describe(s) + " moves " + std::to_string(sa.bytes) +
                  " bytes but matched " + describe(v) + " expects " +
                  std::to_string(ra.bytes);
      rep.findings.push_back(std::move(f));
    }
    // Data edges: the recv cannot complete before the send is issued,
    // and delivery cannot finish before the sender's side has (the
    // simulated transfer completes both requests together).
    hb[issue_ev(s)].push_back(comp_ev(v));
    hb[comp_ev(s)].push_back(comp_ev(v));
  }

  // ---- in-cascade issue order --------------------------------------------
  // When an action completes, the runtime issues every newly-ready action
  // of a rank in index order, synchronously. So if everything action a
  // waits for is already complete by the time action b (a < b, same rank)
  // can issue, a's issue provably precedes b's. These edges capture the
  // posting order pipelined builders rely on.
  {
    ReachOracle pre(hb);
    for (int r = 0; r < n; ++r) {
      const auto& actions = plan.ranks[r].actions;
      const int cnt = static_cast<int>(actions.size());
      for (int b = 1; b < cnt; ++b) {
        const int gb = base[r] + b;
        for (int a = 0; a < b; ++a) {
          const int ga = base[r] + a;
          bool dominated = true;
          for (const DepRef& d : actions[a].deps) {
            const int dr = d.rank == DepRef::kSameRank ? r : d.rank;
            if (!pre.reaches(comp_ev(base[dr] + d.action), issue_ev(gb))) {
              dominated = false;
              break;
            }
          }
          if (!dominated) continue;
          if (pre.reaches(issue_ev(gb), issue_ev(ga))) continue;
          hb[issue_ev(ga)].push_back(issue_ev(gb));
        }
      }
    }
  }

  // ---- posting-order check for shared match keys -------------------------
  // A dependency chain that *forces* a later same-key op to post before an
  // earlier one inverts FIFO matching — a hard error. Same-key ops that
  // are merely HB-incomparable keep index order whenever they become
  // ready together, so they get a warning, not an error.
  ReachOracle dep_reach(hb);
  auto order_key_ops = [&](const std::vector<int>& ops, const char* what,
                           const std::tuple<int, int, int>& key) {
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        const bool forward =
            dep_reach.reaches(issue_ev(ops[i]), issue_ev(ops[j]));
        const bool inverted =
            dep_reach.reaches(issue_ev(ops[j]), issue_ev(ops[i]));
        if (forward && !inverted) continue;
        Finding f;
        f.code = Diag::MatchOrderAmbiguous;
        f.severity = inverted ? Severity::Error : Severity::Warning;
        f.rank_a = rank_of(ops[i]);
        f.index_a = action_of(ops[i]);
        f.rank_b = rank_of(ops[j]);
        f.index_b = action_of(ops[j]);
        f.message = std::string(what) + "s " + describe(ops[i]) + " and " +
                    describe(ops[j]) + " share key (src " +
                    std::to_string(std::get<0>(key)) + ", dst " +
                    std::to_string(std::get<1>(key)) + ", tag " +
                    std::to_string(std::get<2>(key)) +
                    (inverted
                         ? ") and dependencies force the later one to "
                           "post first, inverting FIFO matching"
                         : ") and their posting order is not fixed by "
                           "dependencies");
        rep.findings.push_back(std::move(f));
      }
    }
  };
  for (const auto& [key, ops] : keys) {
    if (ops.sends.size() > 1) order_key_ops(ops.sends, "send", key);
    if (ops.recvs.size() > 1) order_key_ops(ops.recvs, "recv", key);
  }

  // ---- wait-for cycles --------------------------------------------------
  if (opts.check_deadlock) {
    // Deadlock graph = happens-before edges plus, under rendezvous
    // semantics, the reverse coupling: a send cannot complete before its
    // matching recv is issued.
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v < num_events; ++v) {
      for (int w : hb[v]) edges.emplace_back(v, w);
    }
    if (opts.assume_rendezvous) {
      for (const auto& [s, v] : matches) {
        edges.emplace_back(issue_ev(v), comp_ev(s));
      }
    }
    const FlatGraph wait = FlatGraph::from_edges(num_events, edges);
    int num_comp = 0;
    const std::vector<int> comp = tarjan_scc(wait, &num_comp);
    std::vector<int> scc_size(num_comp, 0), scc_min(num_comp, num_events);
    for (int v = 0; v < num_events; ++v) {
      ++scc_size[comp[v]];
      scc_min[comp[v]] = std::min(scc_min[comp[v]], v);
    }
    int reported = 0;
    for (int c = 0; c < num_comp && reported < 4; ++c) {
      if (scc_size[c] < 2) continue;
      ++reported;
      const std::vector<int> cyc = witness_cycle(wait, comp, scc_min[c]);
      Finding f;
      f.code = Diag::WaitCycle;
      f.severity = Severity::Error;
      std::string msg = "wait cycle of " + std::to_string(cyc.size()) +
                        " events: ";
      for (std::size_t i = 0; i < cyc.size(); ++i) {
        const int ev = cyc[i];
        const int g = ev / 2;
        f.cycle.push_back({rank_of(g), action_of(g), (ev % 2) != 0});
        if (i > 0) msg += " -> ";
        msg += describe(g);
        msg += (ev % 2) != 0 ? " completion" : " issue";
      }
      f.message = std::move(msg);
      rep.findings.push_back(std::move(f));
    }
  }

  // ---- Cross* peer-ordering ---------------------------------------------
  // A CrossCopy/CrossReduce reads the peer's slot directly; without a
  // dependency path from some action of the peer it can run before the
  // peer even arrived (the runtime asserts on this at execution time).
  std::vector<std::vector<int>> rhb(num_events);
  for (int v = 0; v < num_events; ++v) {
    for (int w : hb[v]) rhb[w].push_back(v);
  }
  ReachOracle rev_reach(rhb);
  for (int r = 0; r < n; ++r) {
    const auto& actions = plan.ranks[r].actions;
    for (int a = 0; a < static_cast<int>(actions.size()); ++a) {
      const Action& act = actions[a];
      if (act.kind != Action::Kind::CrossCopy &&
          act.kind != Action::Kind::CrossReduce) {
        continue;
      }
      if (act.peer == r) continue;
      const int peer_first = base[act.peer];
      const int peer_last = base[act.peer + 1];
      bool ordered = peer_first == peer_last;  // peer has no actions at all
      for (int g = peer_first; g < peer_last && !ordered; ++g) {
        ordered = rev_reach.reaches(issue_ev(base[r] + a), issue_ev(g)) ||
                  rev_reach.reaches(issue_ev(base[r] + a), comp_ev(g));
      }
      if (!ordered) {
        Finding f;
        f.code = Diag::CrossAccessUnordered;
        f.severity = Severity::Error;
        f.rank_a = r;
        f.index_a = a;
        f.rank_b = act.peer;
        f.message = describe(base[r] + a) + " reads rank " +
                    std::to_string(act.peer) +
                    "'s slot with no dependency path from any of that "
                    "rank's actions";
        rep.findings.push_back(std::move(f));
      }
    }
  }

  // ---- byte-interval happens-before races -------------------------------
  if (opts.check_races) {
    std::vector<Access> accesses;
    for (int r = 0; r < n; ++r) {
      const auto& actions = plan.ranks[r].actions;
      for (int a = 0; a < static_cast<int>(actions.size()); ++a) {
        const Action& act = actions[a];
        if (act.bytes == 0) continue;
        const int g = base[r] + a;
        // Sends snapshot their payload synchronously at issue; recv
        // delivery and copy/reduce application run in the completion
        // callback, so those accesses take effect at the completion event.
        auto push = [&](int owner, const coll::SlotRef& ref, AccessType t) {
          const int ev = act.kind == Action::Kind::Send ? issue_ev(g)
                                                        : comp_ev(g);
          accesses.push_back({owner, ref.slot, ref.offset,
                              ref.offset + act.bytes, t, r, a, g, ev});
        };
        switch (act.kind) {
          case Action::Kind::Send:
            push(r, act.src, AccessType::Read);
            break;
          case Action::Kind::Recv:
            push(r, act.dst, AccessType::Write);
            break;
          case Action::Kind::Copy:
            push(r, act.src, AccessType::Read);
            push(r, act.dst, AccessType::Write);
            break;
          case Action::Kind::Reduce:
            push(r, act.src, AccessType::Read);
            push(r, act.dst, AccessType::Accum);
            break;
          case Action::Kind::CrossCopy:
            push(act.peer, act.src, AccessType::Read);
            push(r, act.dst, AccessType::Write);
            break;
          case Action::Kind::CrossReduce:
            push(act.peer, act.src, AccessType::Read);
            push(r, act.dst, AccessType::Accum);
            break;
          case Action::Kind::Compute:
          case Action::Kind::Noop:
            break;
        }
      }
    }
    std::stable_sort(accesses.begin(), accesses.end(),
                     [](const Access& x, const Access& y) {
                       return std::tie(x.owner, x.slot, x.lo) <
                              std::tie(y.owner, y.slot, y.lo);
                     });
    ReachOracle hb_reach(hb);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      const Access& x = accesses[i];
      for (std::size_t j = i + 1; j < accesses.size(); ++j) {
        const Access& y = accesses[j];
        if (y.owner != x.owner || y.slot != x.slot || y.lo >= x.hi) break;
        if (x.global == y.global) continue;
        if (x.type == AccessType::Read && y.type == AccessType::Read) {
          continue;
        }
        if (rep.race_pairs >= static_cast<int>(opts.max_race_pairs)) {
          rep.truncated = true;
          break;
        }
        ++rep.race_pairs;
        const bool xy = hb_reach.reaches(x.ev, y.ev);
        const bool yx = !xy && hb_reach.reaches(y.ev, x.ev);
        if (xy || yx) continue;
        const bool both_accum =
            x.type == AccessType::Accum && y.type == AccessType::Accum;
        Finding f;
        f.code = both_accum ? Diag::ReduceOrderAmbiguous : Diag::BufferRace;
        f.severity = Severity::Error;
        f.rank_a = x.rank;
        f.index_a = x.action;
        f.rank_b = y.rank;
        f.index_b = y.action;
        f.slot = x.slot;
        f.lo = std::max(x.lo, y.lo);
        f.hi = std::min(x.hi, y.hi);
        f.message =
            (both_accum
                 ? std::string("unordered reduction accumulations ")
                 : std::string("unordered conflicting accesses ")) +
            describe(x.global) + " and " + describe(y.global) +
            " overlap on rank " + std::to_string(x.owner) + " slot " +
            std::to_string(x.slot) + " bytes " + interval_str(f.lo, f.hi);
        rep.findings.push_back(std::move(f));
      }
      if (rep.truncated) break;
    }
  }

  return rep;
}

}  // namespace han::verify
