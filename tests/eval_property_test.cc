// Property tests of the FO∃+(≠) evaluator (logic/eval.h) against the
// oracle's brute-force semantics, over seeded (schema, sentence,
// transition) triples from the workload generators; and of the
// candidate form of logic::TransitionView (the search engines' test-
// before-build path) against the view of the built transition.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/accltl/abstraction.h"
#include "src/common/rng.h"
#include "src/logic/eval.h"
#include "src/logic/parser.h"
#include "src/oracle/oracle.h"
#include "src/schema/lts.h"
#include "src/store/fact_store.h"
#include "src/workload/workload.h"

namespace accltl {
namespace logic {
namespace {

Value S(const std::string& s) { return Value::Str(s); }
Value I(int64_t i) { return Value::Int(i); }

oracle::NaiveStep ToNaiveStep(const schema::Transition& t) {
  oracle::NaiveStep step;
  step.method = t.access.method;
  step.binding = t.access.binding;
  step.response = t.response;
  step.pre = oracle::ToNaive(t.pre);
  step.post = oracle::ToNaive(t.post);
  return step;
}

/// The transition sentences of a seeded random formula: the atoms of
/// its abstraction, drawn from one of three generator families.
std::vector<PosFormulaPtr> RandomSentences(Rng* rng,
                                           const schema::Schema& schema) {
  acc::AccPtr f;
  switch (rng->Uniform(3)) {
    case 0:
      f = workload::RandomZeroAryFormula(rng, schema, 3, true);
      break;
    case 1:
      f = workload::RandomBindingPositiveFormula(rng, schema, 3);
      break;
    default:
      f = workload::RandomGuardedUntilFormula(rng, schema, 2, true);
      break;
  }
  return acc::Abstract(f).atoms;
}

/// A short chain of transitions from a random instance: accesses and
/// responses drawn from a random universe, so responses both add new
/// facts and repeat facts already present.
std::vector<schema::Transition> RandomTransitions(
    Rng* rng, const schema::Schema& schema) {
  schema::Instance universe = workload::RandomInstance(rng, schema, 12, 3);
  schema::Instance pre = workload::RandomInstance(rng, schema, 4, 3);
  universe.UnionWith(pre);
  schema::AccessPath path =
      workload::RandomAccessStream(rng, schema, universe, 3);
  std::vector<schema::Transition> out;
  for (const schema::AccessStep& step : path.steps()) {
    out.push_back(
        schema::MakeTransition(schema, pre, step.access, step.response));
    pre = out.back().post;
  }
  return out;
}

/// The oracle's work on `f` over a domain of `d` values: it tries
/// every assignment of each quantifier's variables, nesting multiplies.
double OracleCost(const PosFormula* f, double d) {
  switch (f->kind()) {
    case NodeKind::kExists: {
      double c = OracleCost(f->body().get(), d);
      for (size_t i = 0; i < f->bound_vars().size(); ++i) c *= d;
      return c;
    }
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      double c = 0;
      for (const PosFormulaPtr& ch : f->children()) {
        c += OracleCost(ch.get(), d);
      }
      return c;
    }
    default:
      return 1;
  }
}

/// Sentences the brute-force oracle decides in well under a second.
constexpr double kMaxOracleCost = 2e5;

class EvalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EvalPropertyTest, SentencesAgreeWithOracleAndCandidateView) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  schema::Schema schema =
      GetParam() % 2 == 0 ? workload::RandomSchema(&rng, 3, 3)
                          : workload::RandomHighArityMixedSchema(&rng, 2);
  std::vector<schema::Transition> transitions =
      RandomTransitions(&rng, schema);
  std::vector<PosFormulaPtr> sentences = RandomSentences(&rng, schema);
  std::vector<store::FactId> sorted_response, post_ids;
  for (const schema::Transition& t : transitions) {
    oracle::NaiveStep naive = ToNaiveStep(t);
    TransitionView built(t);
    schema::RelationId rel = schema.method(t.access.method).relation;
    schema::CandidatePostIds(t.pre, rel, t.response_ids, &sorted_response,
                             &post_ids);
    ASSERT_EQ(post_ids, t.post.facts(rel)->ids());
    TransitionView candidate(t.pre, t.access.method, t.access.binding, rel,
                             post_ids);
    std::set<Value> dom;
    for (const auto& [r, tuples] : naive.post) {
      for (const Tuple& tuple : tuples) dom.insert(tuple.begin(), tuple.end());
    }
    dom.insert(t.access.binding.begin(), t.access.binding.end());
    for (const PosFormulaPtr& s : sentences) {
      double d = static_cast<double>(dom.size() + s->Constants().size());
      if (OracleCost(s.get(), d) > kMaxOracleCost) continue;
      bool expect = oracle::NaiveEvalSentence(s, naive);
      EXPECT_EQ(EvalSentence(s, built), expect) << s->ToString(schema);
      EXPECT_EQ(EvalSentence(s, candidate), expect) << s->ToString(schema);
    }
  }
}

/// Open formulas: EnumerateAnswers and EvalWithEnv against the oracle,
/// which decides `EXISTS head . (φ AND head = answer)` by brute force.
TEST_P(EvalPropertyTest, OpenFormulasAgreeWithOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  schema::Schema schema = workload::RandomSchema(&rng, 2, 3);
  schema::Instance inst = workload::RandomInstance(&rng, schema, 8, 3);
  PosFormulaPtr cq = workload::RandomCq(&rng, schema, 3, 4);
  if (cq->kind() != NodeKind::kExists) GTEST_SKIP() << "no variables";
  // Up to two of the body's variables answer; the others stay
  // quantified.
  std::set<std::string> vars = cq->body()->FreeVars();
  std::vector<std::string> head, rest;
  for (const std::string& v : vars) {
    (head.size() < 2 ? head : rest).push_back(v);
  }
  PosFormulaPtr open =
      rest.empty() ? cq->body() : PosFormula::Exists(rest, cq->body());

  // The oracle reads a NaiveStep, so shift the plain query onto pre.
  oracle::NaiveStep naive;
  naive.method = -1;
  naive.pre = oracle::ToNaive(inst);
  auto oracle_holds = [&](const Tuple& row) {
    std::vector<PosFormulaPtr> conj = {ShiftPlainSpace(open, PredSpace::kPre)};
    for (size_t i = 0; i < head.size(); ++i) {
      conj.push_back(PosFormula::Eq(Term::Var(head[i]), Term::Const(row[i])));
    }
    return oracle::NaiveEvalSentence(
        PosFormula::Exists(head, PosFormula::And(conj)), naive);
  };

  InstanceView view(inst);
  std::set<Tuple> answers = EnumerateAnswers(open, head, view);
  std::set<Value> dom = inst.ActiveDomain();
  std::vector<Value> domain(dom.begin(), dom.end());
  // Every row over the active domain: an answer iff the oracle holds,
  // and EvalWithEnv agrees with both.
  std::vector<size_t> idx(head.size(), 0);
  size_t expected = 0;
  for (bool more = !domain.empty(); more;) {
    Tuple row;
    Env env;
    for (size_t i = 0; i < head.size(); ++i) {
      row.push_back(domain[idx[i]]);
      env[head[i]] = domain[idx[i]];
    }
    bool holds = oracle_holds(row);
    expected += holds ? 1 : 0;
    EXPECT_EQ(answers.count(row) > 0, holds) << open->ToString(schema);
    EXPECT_EQ(EvalWithEnv(open, view, env), holds) << open->ToString(schema);
    size_t pos = 0;
    while (pos < idx.size() && ++idx[pos] == domain.size()) idx[pos++] = 0;
    more = pos < idx.size();
  }
  EXPECT_EQ(answers.size(), expected) << open->ToString(schema);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalPropertyTest, ::testing::Range(0, 60));

class EvalScopingTest : public ::testing::Test {
 protected:
  EvalScopingTest() : pd_(workload::MakePhoneDirectory()), inst_(pd_.schema) {
    inst_.AddFact(pd_.mobile, {S("Smith"), S("OX13QD"), S("Parks Rd"), I(1)});
    inst_.AddFact(pd_.mobile, {S("Jones"), S("W1"), S("Baker St"), I(2)});
    inst_.AddFact(pd_.address, {S("Parks Rd"), S("OX13QD"), S("Brown"), I(9)});
    inst_.AddFact(pd_.address,
                  {S("Parks Rd"), S("OX13QD"), S("Smith"), I(13)});
  }

  PosFormulaPtr Parse(const std::string& text) {
    Result<PosFormulaPtr> r = ParseFormula(text, pd_.schema);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
    return r.ok() ? r.value() : PosFormula::False();
  }

  workload::PhoneDirectory pd_;
  schema::Instance inst_;
};

TEST_F(EvalScopingTest, ReboundExistsInsideAConjunction) {
  InstanceView view(inst_);
  // EXISTS x . (R(x) AND EXISTS x . S(x)).
  EXPECT_TRUE(EvalSentence(
      Parse("EXISTS n . ((EXISTS p,s,ph . Mobile(n,p,s,ph)) AND "
            "(EXISTS n . EXISTS s,pc,h . Address(s,pc,n,h)))"),
      view));
  schema::Instance no_address(pd_.schema);
  no_address.AddFact(pd_.mobile, {S("Smith"), S("W1"), S("Baker St"), I(1)});
  InstanceView mobile_only(no_address);
  EXPECT_FALSE(EvalSentence(
      Parse("EXISTS n . ((EXISTS p,s,ph . Mobile(n,p,s,ph)) AND "
            "(EXISTS n . EXISTS s,pc,h . Address(s,pc,n,h)))"),
      mobile_only));
}

TEST_F(EvalScopingTest, InnerWitnessDoesNotLeakIntoLaterConjuncts) {
  InstanceView view(inst_);
  // The middle conjunct re-binds n; the last one must see the n of the
  // Mobile atom again, so only Smith (in both tables) answers.
  PosFormulaPtr open = Parse(
      "(EXISTS p,s,ph . Mobile(n,p,s,ph)) AND "
      "(EXISTS n,s,pc,h . Address(s,pc,n,h)) AND "
      "(EXISTS s,pc,h . Address(s,pc,n,h))");
  EXPECT_EQ(EnumerateAnswers(open, {"n"}, view),
            (std::set<Tuple>{{S("Smith")}}));
  EXPECT_TRUE(EvalWithEnv(open, view, {{"n", S("Smith")}}));
  EXPECT_FALSE(EvalWithEnv(open, view, {{"n", S("Jones")}}));
  EXPECT_FALSE(EvalWithEnv(open, view, {{"n", S("Brown")}}));
}

TEST_F(EvalScopingTest, QuantifiedVariableIsUnboundAgainAfterItsScope) {
  InstanceView view(inst_);
  // After the quantifier, n is free and unbound again: the equality
  // binds it, whatever names the Mobile witnesses carried.
  PosFormulaPtr open =
      Parse("(EXISTS n,p,s,ph . Mobile(n,p,s,ph)) AND n = \"Nobody\"");
  EXPECT_EQ(EnumerateAnswers(open, {"n"}, view),
            (std::set<Tuple>{{S("Nobody")}}));
  // A caller-bound n is hidden inside the quantifier and visible after.
  EXPECT_TRUE(EvalWithEnv(open, view, {{"n", S("Nobody")}}));
  EXPECT_FALSE(EvalWithEnv(open, view, {{"n", S("Smith")}}));
}

TEST_F(EvalScopingTest, OracleAgreesOnReboundVariables) {
  // The inner EXISTS n re-binds n; the last conjunct needs the outer n.
  PosFormulaPtr f = Parse(
      "EXISTS n . ((EXISTS p,s,ph . Mobile_pre(n,p,s,ph)) AND "
      "(EXISTS n,s,pc,h . Address_pre(s,pc,n,h)) AND "
      "(EXISTS s,pc,h . Address_pre(s,pc,n,h)))");
  schema::Instance disjoint(pd_.schema);
  disjoint.AddFact(pd_.mobile, {S("Jones"), S("W1"), S("Baker St"), I(2)});
  disjoint.AddFact(pd_.address,
                   {S("Parks Rd"), S("OX13QD"), S("Brown"), I(9)});
  for (const schema::Instance* pre : {&inst_, &disjoint}) {
    schema::Transition t = schema::MakeTransition(
        pd_.schema, *pre, schema::Access{pd_.acm1, {S("Smith")}}, {});
    bool expect = pre == &inst_;  // only inst_ has Smith in both tables
    EXPECT_EQ(EvalOnTransition(f, t), expect);
    EXPECT_EQ(oracle::NaiveEvalSentence(f, ToNaiveStep(t)), expect);
  }
}

TEST(TupleRangeModesTest, SingleAndSpan) {
  Tuple one = {S("a"), I(1)};
  store::TupleRange single = store::TupleRange::Single(one);
  EXPECT_EQ(single.size(), 1u);
  std::vector<Tuple> seen;
  for (const Tuple& t : single) seen.push_back(t);
  EXPECT_EQ(seen, std::vector<Tuple>{one});
  EXPECT_TRUE(single.Contains(one));
  EXPECT_FALSE(single.Contains(Tuple{S("b"), I(1)}));

  auto& st = store::Store::Get();
  std::vector<store::FactId> ids = {st.InternTuple({S("x")}),
                                    st.InternTuple({S("y")})};
  std::sort(ids.begin(), ids.end());
  store::TupleRange span(ids.data(), ids.size());
  std::vector<Tuple> got;
  for (const Tuple& t : span) got.push_back(t);
  EXPECT_EQ(got, (std::vector<Tuple>{st.tuple(ids[0]), st.tuple(ids[1])}));
  EXPECT_TRUE(span.Contains({S("y")}));
  EXPECT_FALSE(span.Contains({S("z")}));
  store::TupleRange empty(ids.data(), 0);
  EXPECT_TRUE(empty.begin() == empty.end());
}

}  // namespace
}  // namespace logic
}  // namespace accltl
