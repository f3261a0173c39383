// End-to-end exit-code contract of accltl_cli: malformed schema text
// must terminate the process with exit code 1 and a parse error on
// stderr — never an assert/abort — while flag/usage mistakes exit 2
// and a clean request exits 0. Exercised through the real binary
// (ACCLTL_CLI_PATH, injected by CMake) so the contract covers the
// whole path from argv to LoadSchema to ParseSchema.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#ifndef ACCLTL_CLI_PATH
#error "ACCLTL_CLI_PATH must be defined by the build"
#endif

namespace accltl {
namespace {

// Runs the CLI with `args`, discarding output, and returns the exit
// code (-1 when the process did not exit normally — i.e. it crashed,
// which is exactly what the garbage-schema cases must NOT do).
int RunCli(const std::string& args) {
  std::string cmd =
      std::string(ACCLTL_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  int status = std::system(cmd.c_str());
#ifdef _WIN32
  return status;
#else
  if (!WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
#endif
}

std::string WriteTemp(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(CliExitTest, ValidRequestExitsZero) {
  std::string schema = WriteTemp("cli_ok.schema",
                                 "relation R(a: string)\n"
                                 "access M on R() bound 1\n");
  EXPECT_EQ(RunCli("check " + schema + " 'F [IsBind_M()]'"), 0);
}

TEST(CliExitTest, DuplicateMethodNameExitsOne) {
  // Regression: this schema used to trip the AddAccessMethod assert
  // (duplicate name) and abort; it must be an ordinary parse failure.
  std::string schema = WriteTemp("cli_dup.schema",
                                 "relation R(a: string)\n"
                                 "access M on R(a)\n"
                                 "access M on R()\n");
  EXPECT_EQ(RunCli("check " + schema + " 'F [IsBind_M()]'"), 1);
}

TEST(CliExitTest, NegativeBoundExitsOne) {
  std::string schema = WriteTemp("cli_badbound.schema",
                                 "relation R(a: string)\n"
                                 "access M on R(a) bound -1\n");
  EXPECT_EQ(RunCli("check " + schema + " 'F [IsBind_M()]'"), 1);
}

TEST(CliExitTest, GarbageSchemaExitsOne) {
  std::string schema =
      WriteTemp("cli_garbage.schema", "relation relation ((((\n\x01\x02");
  EXPECT_EQ(RunCli("check " + schema + " 'F [TRUE]'"), 1);
}

TEST(CliExitTest, MissingSchemaFileExitsOne) {
  EXPECT_EQ(RunCli("check /nonexistent/no.schema 'F [TRUE]'"), 1);
}

TEST(CliExitTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunCli("check"), 2);                 // missing args
  EXPECT_EQ(RunCli("no-such-subcommand"), 2);    // unknown subcommand
  std::string schema = WriteTemp("cli_ok2.schema",
                                 "relation R(a: string)\n"
                                 "access M on R()\n");
  EXPECT_EQ(
      RunCli("check " + schema + " 'F [IsBind_M()]' --no-such-flag"), 2);
}

// Recursive-descent parsers used to overflow the stack (SIGSEGV) on
// deeply nested input; past the nesting cap a formula is an ordinary
// parse error, from argv and from a batch line alike.
std::string Nest(size_t depth, const std::string& inner) {
  return std::string(depth, '(') + inner + std::string(depth, ')');
}

TEST(CliExitTest, DeepAccLtlFormulaExitsOne) {
  std::string schema = WriteTemp("cli_deep.schema",
                                 "relation R(a: string)\n"
                                 "access M on R()\n");
  std::string deep = Nest(10000, "F [IsBind_M()]");
  EXPECT_EQ(RunCli("check " + schema + " '" + deep + "'"), 1);
  std::string requests = WriteTemp("cli_deep.requests", deep + "\n");
  EXPECT_EQ(RunCli("batch " + schema + " " + requests), 1);
}

TEST(CliExitTest, DeepFoBodyExitsOne) {
  std::string schema = WriteTemp("cli_deep_fo.schema",
                                 "relation R(a: string)\n"
                                 "access M on R()\n");
  EXPECT_EQ(RunCli("check " + schema + " 'F [" +
                   Nest(20000, "IsBind_M()") + "]'"),
            1);
}

}  // namespace
}  // namespace accltl
