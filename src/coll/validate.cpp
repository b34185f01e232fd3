#include "coll/validate.hpp"

#include <vector>

namespace han::coll {

namespace {

std::string node_name(int rank, int action) {
  return "rank " + std::to_string(rank) + " action " + std::to_string(action);
}

bool uses_src(Action::Kind k) {
  switch (k) {
    case Action::Kind::Send:
    case Action::Kind::Copy:
    case Action::Kind::Reduce:
    case Action::Kind::CrossCopy:
    case Action::Kind::CrossReduce:
      return true;
    default:
      return false;
  }
}

bool uses_dst(Action::Kind k) {
  switch (k) {
    case Action::Kind::Recv:
    case Action::Kind::Copy:
    case Action::Kind::Reduce:
    case Action::Kind::CrossCopy:
    case Action::Kind::CrossReduce:
      return true;
    default:
      return false;
  }
}

bool uses_peer(Action::Kind k) {
  switch (k) {
    case Action::Kind::Send:
    case Action::Kind::Recv:
    case Action::Kind::CrossCopy:
    case Action::Kind::CrossReduce:
      return true;
    default:
      return false;
  }
}

/// Check one slot reference of action (rank, action) against the owning
/// rank's slot table. Only temp-slot extents are knowable here (user
/// buffers bind at start()). `role` ("src"/"dst") names the operand; the
/// message is formatted only when the check fails.
std::string check_slot(const Plan& plan, int owner, const SlotRef& ref,
                       std::size_t bytes, int rank, int action,
                       const char* role) {
  const std::size_t temps = plan.ranks[owner].temp_slots.size();
  const std::size_t total =
      static_cast<std::size_t>(plan.num_user_slots) + temps;
  if (ref.slot < 0 || static_cast<std::size_t>(ref.slot) >= total) {
    return node_name(rank, action) + " " + role + " references slot " +
           std::to_string(ref.slot) + " but rank " + std::to_string(owner) +
           " has " + std::to_string(total) + " slots";
  }
  if (ref.slot >= plan.num_user_slots) {
    const std::size_t size =
        plan.ranks[owner]
            .temp_slots[static_cast<std::size_t>(ref.slot) -
                        static_cast<std::size_t>(plan.num_user_slots)];
    if (ref.offset + bytes > size) {
      return node_name(rank, action) + " " + role + " overruns temp slot " +
             std::to_string(ref.slot) + " (" + std::to_string(ref.offset) +
             " + " + std::to_string(bytes) + " > " + std::to_string(size) +
             ")";
    }
  }
  return "";
}

}  // namespace

std::string validate_plan(const Plan& plan, int comm_size) {
  const int n = static_cast<int>(plan.ranks.size());
  if (n != comm_size) {
    return "plan has " + std::to_string(n) + " rank plans for a size-" +
           std::to_string(comm_size) + " communicator";
  }
  if (plan.num_user_slots < 0) {
    return "negative num_user_slots " + std::to_string(plan.num_user_slots);
  }

  // Flatten (rank, action) to one node id for the global cycle check.
  std::vector<int> base(n + 1, 0);
  for (int r = 0; r < n; ++r) {
    base[r + 1] = base[r] + static_cast<int>(plan.ranks[r].actions.size());
  }
  const int total = base[n];
  std::vector<int> indegree(total, 0);
  std::vector<int> outdegree(total, 0);

  for (int r = 0; r < n; ++r) {
    const auto& actions = plan.ranks[r].actions;
    for (int a = 0; a < static_cast<int>(actions.size()); ++a) {
      const Action& act = actions[a];
      // Messages are built only on failure: this runs for every action
      // of every plan template.
      if (act.tag < 0) {
        return node_name(r, a) + " has negative tag " +
               std::to_string(act.tag);
      }
      if (uses_peer(act.kind) && (act.peer < 0 || act.peer >= n)) {
        return node_name(r, a) + " peers with out-of-range rank " +
               std::to_string(act.peer);
      }
      // Cross* actions read the *peer's* src slot; everything else its own.
      const bool cross = act.kind == Action::Kind::CrossCopy ||
                         act.kind == Action::Kind::CrossReduce;
      if (uses_src(act.kind)) {
        const int owner = cross ? act.peer : r;
        std::string err =
            check_slot(plan, owner, act.src, act.bytes, r, a, "src");
        if (!err.empty()) return err;
      }
      if (uses_dst(act.kind)) {
        std::string err = check_slot(plan, r, act.dst, act.bytes, r, a, "dst");
        if (!err.empty()) return err;
      }
      for (const DepRef& d : act.deps) {
        const int dr = d.rank == DepRef::kSameRank ? r : d.rank;
        if (dr < 0 || dr >= n) {
          return node_name(r, a) + " depends on out-of-range rank " +
                 std::to_string(d.rank);
        }
        const int dn = static_cast<int>(plan.ranks[dr].actions.size());
        if (d.action < 0 || d.action >= dn) {
          return node_name(r, a) + " depends on out-of-range action " +
                 std::to_string(d.action) + " of rank " + std::to_string(dr);
        }
        if (dr == r && d.action == a) {
          return node_name(r, a) + " depends on itself";
        }
        if (d.latency < 0.0) {
          return node_name(r, a) + " has a negative dep latency";
        }
        ++outdegree[base[dr] + d.action];
        ++indegree[base[r] + a];
      }
    }
  }

  // Reverse edges, flat: dependents of node i are
  // dependents[begin[i] .. begin[i + 1]).
  std::vector<int> begin(total + 1, 0);
  for (int i = 0; i < total; ++i) begin[i + 1] = begin[i] + outdegree[i];
  std::vector<int> dependents(begin[total]);
  for (int r = 0; r < n; ++r) {
    const auto& actions = plan.ranks[r].actions;
    for (int a = 0; a < static_cast<int>(actions.size()); ++a) {
      for (const DepRef& d : actions[a].deps) {
        const int dr = d.rank == DepRef::kSameRank ? r : d.rank;
        const int from = base[dr] + d.action;
        dependents[begin[from + 1] - outdegree[from]--] = base[r] + a;
      }
    }
  }

  // Kahn over the whole multi-rank DAG: every action must be reachable
  // from the dep-free set, or some subset deadlocks at runtime.
  std::vector<int> ready;
  for (int i = 0; i < total; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  int visited = 0;
  while (!ready.empty()) {
    const int i = ready.back();
    ready.pop_back();
    ++visited;
    for (int k = begin[i]; k < begin[i + 1]; ++k) {
      if (--indegree[dependents[k]] == 0) ready.push_back(dependents[k]);
    }
  }
  if (visited != total) {
    return "dependency cycle among " + std::to_string(total - visited) +
           " of " + std::to_string(total) + " actions";
  }
  return "";
}

}  // namespace han::coll
