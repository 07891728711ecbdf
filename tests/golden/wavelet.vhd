-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'wavelet'
-- data path: 1 nodes (1 soft, 0 hard), 2 pipeline stages
-- netlist: 26 cells, 47 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity wavelet_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0 : in signed(15 downto 0);
    X1 : in signed(15 downto 0);
    X2 : in signed(15 downto 0);
    X3 : in signed(15 downto 0);
    X4 : in signed(15 downto 0);
    X5 : in signed(15 downto 0);
    X6 : in signed(15 downto 0);
    X7 : in signed(15 downto 0);
    X8 : in signed(15 downto 0);
    t31_out : out signed(15 downto 0);
    t17_s1_out : out signed(15 downto 0)
  );
end entity wavelet_dp_node1;

architecture rtl of wavelet_dp_node1 is
  signal t18 : signed(16 downto 0);
  signal t14 : signed(16 downto 0);
  signal t19 : signed(15 downto 0);
  signal t20 : signed(16 downto 0);
  signal t15 : signed(15 downto 0);
  signal t16 : signed(16 downto 0);
  signal t17 : signed(15 downto 0);
  signal t28 : signed(16 downto 0);
  signal t29 : signed(14 downto 0);
  signal t9 : signed(16 downto 0);
  signal t11 : signed(15 downto 0);
  signal t12 : signed(16 downto 0);
  signal t22 : signed(16 downto 0);
  signal t24 : signed(17 downto 0);
  signal t25 : signed(15 downto 0);
  signal t26 : signed(16 downto 0);
  signal t27_s1 : signed(15 downto 0) := (others => '0');
  signal t29_s1 : signed(14 downto 0) := (others => '0');
  signal t30 : signed(16 downto 0);
  signal t31 : signed(15 downto 0);
  signal t17_s1 : signed(15 downto 0) := (others => '0');
begin
  t18 <= resize(X6, 17) + resize(X8, 17);
  t14 <= resize(X3, 17) + resize(X5, 17);
  t19 <= t18(16 downto 1);
  t20 <= resize(X7, 17) - resize(t19, 17);
  t15 <= t14(16 downto 1);
  t16 <= resize(X4, 17) - resize(t15, 17);
  t17 <= t16(15 downto 0);
  t28 <= resize(t17, 17) + resize(t20(15 downto 0), 17);
  t29 <= t28(16 downto 2);
  t9 <= resize(X0, 17) + resize(X2, 17);
  t11 <= t9(16 downto 1);
  t12 <= resize(X1, 17) - resize(t11, 17);
  t22 <= resize(t12(15 downto 0), 17) + resize(t17, 17);
  t24 <= resize(t22, 18) + to_signed(2, 18);
  t25 <= t24(17 downto 2);
  t26 <= resize(X4, 17) + resize(t25, 17);
  t30 <= resize(t27_s1, 17) + resize(t29_s1, 17);
  t31 <= t30(15 downto 0);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t27_s1 <= t26(15 downto 0);
        t29_s1 <= t29;
        t17_s1 <= t17;
      end if;
    end if;
  end process;
  t31_out <= t31;
  t17_s1_out <= t17_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity wavelet_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0 : in signed(15 downto 0);
    X1 : in signed(15 downto 0);
    X2 : in signed(15 downto 0);
    X3 : in signed(15 downto 0);
    X4 : in signed(15 downto 0);
    X5 : in signed(15 downto 0);
    X6 : in signed(15 downto 0);
    X7 : in signed(15 downto 0);
    X8 : in signed(15 downto 0);
    S_o0 : out signed(15 downto 0);
    D_o0 : out signed(15 downto 0)
  );
end entity wavelet_dp;

architecture rtl of wavelet_dp is
  signal t31 : signed(15 downto 0);
  signal t17_s1 : signed(15 downto 0);
begin
  u_node1 : entity work.wavelet_dp_node1
    port map (clk => clk, ce => ce, X0 => X0, X1 => X1, X2 => X2, X3 => X3, X4 => X4, X5 => X5, X6 => X6, X7 => X7, X8 => X8, t31_out => t31, t17_s1_out => t17_s1);
  S_o0 <= t31;
  D_o0 <= t17_s1;
end architecture rtl;
