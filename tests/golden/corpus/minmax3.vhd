-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'minmax3'
-- data path: 13 nodes (5 soft, 8 hard), 2 pipeline stages
-- netlist: 22 cells, 38 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node1 is
  port (
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    t3_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_node1;

architecture rtl of minmax3_dp_node1 is
  signal t3 : unsigned(0 downto 0);
begin
  t3 <= "1" when resize(A1, 13) < resize(A0, 13) else "0";
  t3_out <= t3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_mux_bb3 is
  port (
    A1_pipe : in signed(11 downto 0);
    A0_pipe : in signed(11 downto 0);
    n17_pipe : in unsigned(0 downto 0);
    mn_2_out : out signed(11 downto 0)
  );
end entity minmax3_dp_mux_bb3;

architecture rtl of minmax3_dp_mux_bb3 is
  signal mn_2 : signed(11 downto 0);
begin
  mn_2 <= A1_pipe when n17_pipe /= 0 else A0_pipe;
  mn_2_out <= mn_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node3 is
  port (
    A2_pipe : in signed(11 downto 0);
    mn_2 : in signed(11 downto 0);
    t5_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_node3;

architecture rtl of minmax3_dp_node3 is
  signal t5 : unsigned(0 downto 0);
begin
  t5 <= "1" when resize(A2_pipe, 13) < resize(mn_2, 13) else "0";
  t5_out <= t5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_mux_bb6 is
  port (
    A2_pipe_s1 : in signed(11 downto 0);
    n22_pipe_s1 : in unsigned(0 downto 0);
    mn_2_pipe_s1 : in signed(11 downto 0);
    mn_4_out : out signed(11 downto 0)
  );
end entity minmax3_dp_mux_bb6;

architecture rtl of minmax3_dp_mux_bb6 is
  signal mn_4 : signed(11 downto 0);
begin
  mn_4 <= A2_pipe_s1 when n22_pipe_s1 /= 0 else mn_2_pipe_s1;
  mn_4_out <= mn_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node5 is
  port (
    A1_pipe : in signed(11 downto 0);
    A0_pipe : in signed(11 downto 0);
    t7_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_node5;

architecture rtl of minmax3_dp_node5 is
  signal t7 : unsigned(0 downto 0);
begin
  t7 <= "1" when resize(A1_pipe, 13) > resize(A0_pipe, 13) else "0";
  t7_out <= t7;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_mux_bb9 is
  port (
    A1_pipe : in signed(11 downto 0);
    A0_pipe : in signed(11 downto 0);
    n7_pipe : in unsigned(0 downto 0);
    mx_2_out : out signed(11 downto 0)
  );
end entity minmax3_dp_mux_bb9;

architecture rtl of minmax3_dp_mux_bb9 is
  signal mx_2 : signed(11 downto 0);
begin
  mx_2 <= A1_pipe when n7_pipe /= 0 else A0_pipe;
  mx_2_out <= mx_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node7 is
  port (
    A2_pipe : in signed(11 downto 0);
    mx_2 : in signed(11 downto 0);
    t9_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_node7;

architecture rtl of minmax3_dp_node7 is
  signal t9 : unsigned(0 downto 0);
begin
  t9 <= "1" when resize(A2_pipe, 13) > resize(mx_2, 13) else "0";
  t9_out <= t9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_mux_bb12 is
  port (
    n12_pipe_s1 : in unsigned(0 downto 0);
    A2_pipe_s1 : in signed(11 downto 0);
    mx_2_pipe_s1 : in signed(11 downto 0);
    mx_4_out : out signed(11 downto 0)
  );
end entity minmax3_dp_mux_bb12;

architecture rtl of minmax3_dp_mux_bb12 is
  signal mx_4 : signed(11 downto 0);
begin
  mx_4 <= A2_pipe_s1 when n12_pipe_s1 /= 0 else mx_2_pipe_s1;
  mx_4_out <= mx_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_node9 is
end entity minmax3_dp_node9;

architecture rtl of minmax3_dp_node9 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_pipe_bb3 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    t3 : in unsigned(0 downto 0);
    A2_pipe_out : out signed(11 downto 0);
    A1_pipe_out : out signed(11 downto 0);
    A0_pipe_out : out signed(11 downto 0);
    A2_pipe_s1_out : out signed(11 downto 0);
    n17_pipe_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_pipe_bb3;

architecture rtl of minmax3_dp_pipe_bb3 is
  signal A2_pipe : signed(11 downto 0);
  signal A1_pipe : signed(11 downto 0);
  signal A0_pipe : signed(11 downto 0);
  signal A2_pipe_s1 : signed(11 downto 0) := (others => '0');
  signal n17_pipe : unsigned(0 downto 0);
begin
  A2_pipe <= A2;
  A1_pipe <= A1;
  A0_pipe <= A0;
  n17_pipe <= t3;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        A2_pipe_s1 <= A2_pipe;
      end if;
    end if;
  end process;
  A2_pipe_out <= A2_pipe;
  A1_pipe_out <= A1_pipe;
  A0_pipe_out <= A0_pipe;
  A2_pipe_s1_out <= A2_pipe_s1;
  n17_pipe_out <= n17_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_pipe_bb6 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    mn_2 : in signed(11 downto 0);
    t5 : in unsigned(0 downto 0);
    n22_pipe_s1_out : out unsigned(0 downto 0);
    mn_2_pipe_s1_out : out signed(11 downto 0)
  );
end entity minmax3_dp_pipe_bb6;

architecture rtl of minmax3_dp_pipe_bb6 is
  signal n22_pipe_s1 : unsigned(0 downto 0) := (others => '0');
  signal mn_2_pipe_s1 : signed(11 downto 0) := (others => '0');
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n22_pipe_s1 <= t5;
        mn_2_pipe_s1 <= mn_2;
      end if;
    end if;
  end process;
  n22_pipe_s1_out <= n22_pipe_s1;
  mn_2_pipe_s1_out <= mn_2_pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_pipe_bb9 is
  port (
    t7 : in unsigned(0 downto 0);
    n7_pipe_out : out unsigned(0 downto 0)
  );
end entity minmax3_dp_pipe_bb9;

architecture rtl of minmax3_dp_pipe_bb9 is
  signal n7_pipe : unsigned(0 downto 0);
begin
  n7_pipe <= t7;
  n7_pipe_out <= n7_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp_pipe_bb12 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    mx_2 : in signed(11 downto 0);
    t9 : in unsigned(0 downto 0);
    n12_pipe_s1_out : out unsigned(0 downto 0);
    mx_2_pipe_s1_out : out signed(11 downto 0)
  );
end entity minmax3_dp_pipe_bb12;

architecture rtl of minmax3_dp_pipe_bb12 is
  signal n12_pipe_s1 : unsigned(0 downto 0) := (others => '0');
  signal mx_2_pipe_s1 : signed(11 downto 0) := (others => '0');
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        n12_pipe_s1 <= t9;
        mx_2_pipe_s1 <= mx_2;
      end if;
    end if;
  end process;
  n12_pipe_s1_out <= n12_pipe_s1;
  mx_2_pipe_s1_out <= mx_2_pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity minmax3_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    MN_o0 : out signed(11 downto 0);
    MX_o0 : out signed(11 downto 0)
  );
end entity minmax3_dp;

architecture rtl of minmax3_dp is
  signal A2_pipe : signed(11 downto 0);
  signal A1_pipe : signed(11 downto 0);
  signal A0_pipe : signed(11 downto 0);
  signal t7 : unsigned(0 downto 0);
  signal n7_pipe : unsigned(0 downto 0);
  signal mx_2 : signed(11 downto 0);
  signal t9 : unsigned(0 downto 0);
  signal n12_pipe_s1 : unsigned(0 downto 0);
  signal A2_pipe_s1 : signed(11 downto 0);
  signal mx_2_pipe_s1 : signed(11 downto 0);
  signal mx_4 : signed(11 downto 0);
  signal t3 : unsigned(0 downto 0);
  signal n17_pipe : unsigned(0 downto 0);
  signal mn_2 : signed(11 downto 0);
  signal t5 : unsigned(0 downto 0);
  signal n22_pipe_s1 : unsigned(0 downto 0);
  signal mn_2_pipe_s1 : signed(11 downto 0);
  signal mn_4 : signed(11 downto 0);
begin
  u_node1 : entity work.minmax3_dp_node1
    port map (A0 => A0, A1 => A1, t3_out => t3);
  u_mux_bb3 : entity work.minmax3_dp_mux_bb3
    port map (A1_pipe => A1_pipe, A0_pipe => A0_pipe, n17_pipe => n17_pipe, mn_2_out => mn_2);
  u_node3 : entity work.minmax3_dp_node3
    port map (A2_pipe => A2_pipe, mn_2 => mn_2, t5_out => t5);
  u_mux_bb6 : entity work.minmax3_dp_mux_bb6
    port map (A2_pipe_s1 => A2_pipe_s1, n22_pipe_s1 => n22_pipe_s1, mn_2_pipe_s1 => mn_2_pipe_s1, mn_4_out => mn_4);
  u_node5 : entity work.minmax3_dp_node5
    port map (A1_pipe => A1_pipe, A0_pipe => A0_pipe, t7_out => t7);
  u_mux_bb9 : entity work.minmax3_dp_mux_bb9
    port map (A1_pipe => A1_pipe, A0_pipe => A0_pipe, n7_pipe => n7_pipe, mx_2_out => mx_2);
  u_node7 : entity work.minmax3_dp_node7
    port map (A2_pipe => A2_pipe, mx_2 => mx_2, t9_out => t9);
  u_mux_bb12 : entity work.minmax3_dp_mux_bb12
    port map (n12_pipe_s1 => n12_pipe_s1, A2_pipe_s1 => A2_pipe_s1, mx_2_pipe_s1 => mx_2_pipe_s1, mx_4_out => mx_4);
  u_node9 : entity work.minmax3_dp_node9;
  u_pipe_bb3 : entity work.minmax3_dp_pipe_bb3
    port map (clk => clk, ce => ce, A0 => A0, A1 => A1, A2 => A2, t3 => t3, A2_pipe_out => A2_pipe, A1_pipe_out => A1_pipe, A0_pipe_out => A0_pipe, A2_pipe_s1_out => A2_pipe_s1, n17_pipe_out => n17_pipe);
  u_pipe_bb6 : entity work.minmax3_dp_pipe_bb6
    port map (clk => clk, ce => ce, mn_2 => mn_2, t5 => t5, n22_pipe_s1_out => n22_pipe_s1, mn_2_pipe_s1_out => mn_2_pipe_s1);
  u_pipe_bb9 : entity work.minmax3_dp_pipe_bb9
    port map (t7 => t7, n7_pipe_out => n7_pipe);
  u_pipe_bb12 : entity work.minmax3_dp_pipe_bb12
    port map (clk => clk, ce => ce, mx_2 => mx_2, t9 => t9, n12_pipe_s1_out => n12_pipe_s1, mx_2_pipe_s1_out => mx_2_pipe_s1);
  MN_o0 <= mn_4;
  MX_o0 <= mx_4;
end architecture rtl;
