#include "verify/interleave.hpp"

#include <optional>

#include "util/assert.hpp"

namespace krs::verify {

namespace {

struct State {
  // executed[p][i]: instruction i of processor p has performed at memory.
  std::vector<std::vector<bool>> executed;
  // snooped[p][i]: store already forwarded its value to an early load but
  // has not yet performed (early-load model only).
  std::vector<std::vector<bool>> snooped;
  std::map<std::string, Word> memory;
  std::map<std::string, Word> locals;

  friend bool operator<(const State& a, const State& b) {
    if (a.executed != b.executed) return a.executed < b.executed;
    if (a.snooped != b.snooped) return a.snooped < b.snooped;
    if (a.memory != b.memory) return a.memory < b.memory;
    return a.locals < b.locals;
  }
};

std::string local_key(std::size_t p, const std::string& name) {
  std::string s = "P";
  s += std::to_string(p);
  s += '.';
  s += name;
  return s;
}

const std::string* shared_var(const Instr& ins) {
  if (const auto* l = std::get_if<ILoad>(&ins)) return &l->var;
  if (const auto* s = std::get_if<IStoreConst>(&ins)) return &s->var;
  if (const auto* s = std::get_if<IStoreLocal>(&ins)) return &s->var;
  return nullptr;
}

const std::string* reads_local(const Instr& ins) {
  if (const auto* s = std::get_if<IStoreLocal>(&ins)) return &s->local;
  return nullptr;
}

const std::string* writes_local(const Instr& ins) {
  if (const auto* l = std::get_if<ILoad>(&ins)) return &l->local;
  return nullptr;
}

class Explorer {
 public:
  Explorer(const LitmusProgram& prog, MemModel model)
      : prog_(prog), model_(model) {}

  std::set<Outcome> run() {
    State s;
    s.executed.resize(prog_.procs.size());
    s.snooped.resize(prog_.procs.size());
    for (std::size_t p = 0; p < prog_.procs.size(); ++p) {
      s.executed[p].assign(prog_.procs[p].size(), false);
      s.snooped[p].assign(prog_.procs[p].size(), false);
    }
    s.memory = prog_.initial;
    dfs(s);
    return std::move(outcomes_);
  }

 private:
  /// May instruction i of processor p perform at memory now?
  bool enabled(const State& s, std::size_t p, std::size_t i) const {
    const auto& prog = prog_.procs[p];
    if (s.executed[p][i]) return false;
    const Instr& ins = prog[i];
    const std::string* var = shared_var(ins);
    for (std::size_t j = 0; j < i; ++j) {
      if (s.executed[p][j]) continue;
      const Instr& prev = prog[j];
      if (model_ == MemModel::kSequentialConsistency) return false;
      // A fence orders everything across it.
      if (std::holds_alternative<IFence>(prev) ||
          std::holds_alternative<IFence>(ins)) {
        return false;
      }
      // (M2.3): same-location accesses keep program order.
      const std::string* pvar = shared_var(prev);
      if (var != nullptr && pvar != nullptr && *var == *pvar) return false;
      // Data dependency through a local.
      const std::string* rl = reads_local(ins);
      const std::string* wl = writes_local(prev);
      if (rl != nullptr && wl != nullptr && *rl == *wl) return false;
    }
    return true;
  }

  Word store_value(const State& s, std::size_t p, const Instr& ins) const {
    if (const auto* c = std::get_if<IStoreConst>(&ins)) return c->value;
    const auto& sl = std::get<IStoreLocal>(ins);
    const auto it = s.locals.find(local_key(p, sl.local));
    KRS_ASSERT(it != s.locals.end());
    return it->second + sl.imm;
  }

  void perform(State& s, std::size_t p, std::size_t i) const {
    const Instr& ins = prog_.procs[p][i];
    s.executed[p][i] = true;
    if (const auto* l = std::get_if<ILoad>(&ins)) {
      const auto it = s.memory.find(l->var);
      s.locals[local_key(p, l->local)] = it == s.memory.end() ? 0 : it->second;
      return;
    }
    if (std::holds_alternative<IFence>(ins)) return;
    s.memory[*shared_var(ins)] = store_value(s, p, ins);
  }

  void dfs(const State& s) {
    if (!visited_.insert(s).second) return;
    bool progressed = false;
    for (std::size_t p = 0; p < prog_.procs.size(); ++p) {
      for (std::size_t i = 0; i < prog_.procs[p].size(); ++i) {
        if (!enabled(s, p, i)) continue;
        progressed = true;
        State next = s;
        perform(next, p, i);
        dfs(next);
        // Early-load: a load may instead be satisfied by another
        // processor's enabled-but-unperformed store to the same variable.
        if (model_ == MemModel::kPerLocationFifoEarlyLoad) {
          if (const auto* l = std::get_if<ILoad>(&prog_.procs[p][i])) {
            for (std::size_t q = 0; q < prog_.procs.size(); ++q) {
              if (q == p) continue;
              for (std::size_t j = 0; j < prog_.procs[q].size(); ++j) {
                const Instr& st = prog_.procs[q][j];
                const std::string* svar = shared_var(st);
                if (std::holds_alternative<ILoad>(st) ||
                    std::holds_alternative<IFence>(st)) {
                  continue;  // only stores satisfy a load early
                }
                if (svar == nullptr || *svar != l->var) continue;
                if (!enabled(s, q, j) || s.snooped[q][j]) continue;
                State nx = s;
                nx.executed[p][i] = true;  // load completes early...
                nx.locals[local_key(p, l->local)] = store_value(s, q, st);
                nx.snooped[q][j] = true;   // ...store still pending
                dfs(nx);
              }
            }
          }
        }
      }
    }
    if (!progressed) {
      Outcome o = s.memory;
      for (const auto& [k, v] : s.locals) o[k] = v;
      outcomes_.insert(std::move(o));
    }
  }

  const LitmusProgram& prog_;
  MemModel model_;
  std::set<State> visited_;
  std::set<Outcome> outcomes_;
};

}  // namespace

std::set<Outcome> explore(const LitmusProgram& prog, MemModel model) {
  return Explorer(prog, model).run();
}

bool reachable(const std::set<Outcome>& outcomes, const Outcome& pattern) {
  for (const auto& o : outcomes) {
    bool match = true;
    for (const auto& [k, v] : pattern) {
      const auto it = o.find(k);
      if (it == o.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

}  // namespace krs::verify
