// Churn-smoke design: sixteen independent token-rotator lanes under
// one top module, built so a one-line edit dirties exactly one
// property's cone of influence. Each lane carries a tagged constant
// line (`// churn:laneK`) whose literal the edits of CI
// incremental-smoke and of perfbench's serve-mix traffic rewrite; the
// constant is masked into the rotation (`8'dN & tok`) so the
// invariant okK (= lane K's token stays nonzero) holds for every
// literal, but the constant sits inside okK's cone — editing lane K
// re-verifies okK alone while ok0..ok15 minus okK replay from the
// verdict cache.

module lane0(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane0
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane1(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane1
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane2(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane2
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane3(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane3
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane4(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane4
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane5(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane5
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane6(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane6
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane7(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane7
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane8(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane8
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane9(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane9
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane10(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane10
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane11(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane11
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane12(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane12
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane13(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane13
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane14(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane14
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module lane15(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd0 & tok; // churn:lane15
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule

module churn(clk, ok0, ok1, ok2, ok3, ok4, ok5, ok6, ok7, ok8, ok9, ok10, ok11, ok12, ok13, ok14, ok15);
  input clk;
  output ok0;
  output ok1;
  output ok2;
  output ok3;
  output ok4;
  output ok5;
  output ok6;
  output ok7;
  output ok8;
  output ok9;
  output ok10;
  output ok11;
  output ok12;
  output ok13;
  output ok14;
  output ok15;
  lane0 u0 (.clk(clk), .ok(ok0));
  lane1 u1 (.clk(clk), .ok(ok1));
  lane2 u2 (.clk(clk), .ok(ok2));
  lane3 u3 (.clk(clk), .ok(ok3));
  lane4 u4 (.clk(clk), .ok(ok4));
  lane5 u5 (.clk(clk), .ok(ok5));
  lane6 u6 (.clk(clk), .ok(ok6));
  lane7 u7 (.clk(clk), .ok(ok7));
  lane8 u8 (.clk(clk), .ok(ok8));
  lane9 u9 (.clk(clk), .ok(ok9));
  lane10 u10 (.clk(clk), .ok(ok10));
  lane11 u11 (.clk(clk), .ok(ok11));
  lane12 u12 (.clk(clk), .ok(ok12));
  lane13 u13 (.clk(clk), .ok(ok13));
  lane14 u14 (.clk(clk), .ok(ok14));
  lane15 u15 (.clk(clk), .ok(ok15));
endmodule
